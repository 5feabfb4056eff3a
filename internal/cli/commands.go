package cli

import (
	"context"
	"encoding/base64"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"dgc/internal/admin"
)

// fail prints err and returns exit code 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "dgcctl: %v\n", err)
	return 1
}

func newFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *endpointFlags) {
	fs := flag.NewFlagSet("dgcctl "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	ef := &endpointFlags{}
	ef.register(fs)
	return fs, ef
}

func cmdStatus(args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("status", stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}
	printStatus(stdout, f)
	return 0
}

func printStatus(w io.Writer, f *fleet) {
	fmt.Fprintf(w, "build %s (%s, %s)\n", f.build.Version, f.build.Commit, f.build.Go)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tSTATE\tADDR\tCLOCK\tOBJECTS\tSCIONS\tSTUBS\tSWEPT\tDETECTIONS\tCYCLES\tFAULTS")
	for _, id := range f.nodeIDs() {
		st := f.status[id]
		faults := "-"
		if st.Faults != nil && st.Faults.Active() {
			var parts []string
			if st.Faults.DropRate > 0 {
				parts = append(parts, fmt.Sprintf("drop=%.2f", st.Faults.DropRate))
			}
			if st.Faults.DelayMS > 0 {
				parts = append(parts, fmt.Sprintf("delay=%dms", st.Faults.DelayMS))
			}
			if st.Faults.Isolate {
				parts = append(parts, "isolated")
			} else if len(st.Faults.Partition) > 0 {
				parts = append(parts, "cut:"+strings.Join(st.Faults.Partition, "+"))
			}
			faults = strings.Join(parts, ",")
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			st.Node, st.State, st.Addr, st.Clock, st.Objects, st.Scions, st.Stubs,
			st.ObjectsSwept, st.Detections.Started, st.Detections.CyclesFound, faults)
	}
	tw.Flush()
}

func cmdTop(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("top", stderr)
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	n := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return 0
			case <-time.After(*interval):
			}
		}
		if err := f.refresh(); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "--- %s ---\n", time.Now().Format(time.TimeOnly))
		printStatus(stdout, f)
	}
	return 0
}

func cmdTables(args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("tables", stderr)
	nodeID := fs.String("node", "", "node to dump (optional on single-node clusters)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}
	id := *nodeID
	if id == "" {
		if id, err = f.one(); err != nil {
			return fail(stderr, err)
		}
	}
	c, err := f.client(id)
	if err != nil {
		return fail(stderr, err)
	}
	reply, err := c.Tables(id)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "node %s: %d scions, %d stubs\n", reply.Node, len(reply.Scions), len(reply.Stubs))
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "KIND\tREF\tIC")
	for _, sc := range reply.Scions {
		fmt.Fprintf(tw, "scion\t%s\t%d\n", sc.Ref, sc.IC)
	}
	for _, st := range reply.Stubs {
		fmt.Fprintf(tw, "stub\t%s\t%d\n", st.Ref, st.IC)
	}
	tw.Flush()
	return 0
}

func cmdDetect(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("detect", stderr)
	nodeID := fs.String("node", "", "node to start the detection round on (default: every node)")
	scion := fs.String("scion", "", `force one candidate, "SRC->OBJ@NODE" (as printed by tables)`)
	follow := fs.Bool("follow", false, "poll the detection to a terminal outcome via its trace id")
	timeout := fs.Duration("timeout", 30*time.Second, "give up following after this long")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}
	// Baseline every server's journal head BEFORE triggering anything, so
	// the follow stream replays exactly the events this command caused.
	baselines := make(map[*Client]uint64)
	if *follow {
		// A node that hasn't completed its first gossip exchange can't
		// route detections reliably; fail fast instead of timing out.
		if err := checkMembersReady(f); err != nil {
			return fail(stderr, err)
		}
		for _, sv := range f.servers() {
			head, err := sv.c.JournalHead(ctx, "")
			if err != nil {
				return fail(stderr, fmt.Errorf("%s: no event stream (server predates journals?): %w", sv.nodes[0], err))
			}
			baselines[sv.c] = head
		}
	}

	var traceID string
	switch {
	case *scion != "":
		// The scion names its owner: route there.
		ref, err := admin.ParseRefID(*scion)
		if err != nil {
			return fail(stderr, err)
		}
		owner := string(ref.Dst.Node)
		c, err := f.client(owner)
		if err != nil {
			return fail(stderr, err)
		}
		reply, err := c.Detect(owner, *scion)
		if err != nil {
			return fail(stderr, err)
		}
		res := reply.Result
		fmt.Fprintf(stdout, "detection %s/%d at %s: %s (trace %s)\n",
			res.Origin, res.Seq, owner, res.Outcome, res.TraceID)
		for _, g := range res.GarbageScions {
			fmt.Fprintf(stdout, "  garbage scion %s\n", g)
		}
		if res.Outcome != "forwarded" {
			return 0 // already terminal, nothing to follow
		}
		traceID = res.TraceID
	case *nodeID != "":
		c, err := f.client(*nodeID)
		if err != nil {
			return fail(stderr, err)
		}
		reply, err := c.Detect(*nodeID, "")
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "%s: started %d detections\n", *nodeID, reply.Started)
	default:
		total := 0
		for _, id := range f.nodeIDs() {
			c, err := f.client(id)
			if err != nil {
				continue
			}
			reply, err := c.Detect(id, "")
			if err != nil {
				fmt.Fprintf(stderr, "dgcctl: %s: %v\n", id, err)
				continue
			}
			total += reply.Started
		}
		fmt.Fprintf(stdout, "started %d detections across %d nodes\n", total, len(f.nodeIDs()))
	}
	if !*follow {
		return 0
	}
	return followDetections(ctx, f, traceID, baselines, *timeout, stdout, stderr)
}

// followDetections follows the event stream of every admin server until a
// terminal detection event arrives: cycle-found, or detection-end (whose
// detail carries the outcome). Following one trace id filters the streams to
// that detection; otherwise any terminal event past the pre-trigger journal
// baseline resolves the wait. No counter polling: the journal replay from
// the baseline makes the race between "detection finished" and "client
// subscribed" unlosable.
func followDetections(ctx context.Context, f *fleet, traceID string, baselines map[*Client]uint64, timeout time.Duration, stdout, stderr io.Writer) int {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	terminal := make(chan admin.EventJSON, len(f.servers()))
	for _, sv := range f.servers() {
		sv := sv
		go func() {
			since := baselines[sv.c]
			if traceID != "" {
				// The trace filter scopes the replay, so rewind to the full
				// retained history: a detection that raced ahead of the
				// baseline capture is still found.
				since = 0
			}
			done := false
			for !done && ctx.Err() == nil {
				opts := EventStreamOptions{
					Since:   since,
					Kinds:   "cycle-found,detection-end",
					TraceID: traceID,
					Follow:  true,
					Timeout: timeout,
				}
				_, err := sv.c.StreamEvents(ctx, opts, func(e admin.EventJSON) bool {
					if e.Seq == 0 {
						return true // truncation/eviction marker
					}
					if e.Seq > since {
						since = e.Seq
					}
					select {
					case terminal <- e:
					default:
					}
					done = true
					return false
				})
				if err != nil && ctx.Err() == nil {
					// Node mid-restart or stream cut; resume from last seq.
					select {
					case <-ctx.Done():
					case <-time.After(200 * time.Millisecond):
					}
				}
			}
		}()
	}

	select {
	case <-ctx.Done():
		fmt.Fprintf(stderr, "dgcctl: detection still in flight after %v\n", timeout)
		return 1
	case e := <-terminal:
		outcome := e.Kind
		if o := detailField(e.Detail, "outcome"); o != "" {
			outcome = o
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if outcome == "cycle-found" {
			fmt.Fprintf(stdout, "cycle found at %s after %v", e.Node, elapsed)
		} else {
			fmt.Fprintf(stdout, "detection %s at %s after %v", outcome, e.Node, elapsed)
		}
		if e.Trace != "" {
			fmt.Fprintf(stdout, " (trace %s)", e.Trace)
		}
		fmt.Fprintln(stdout)
		return 0
	}
}

func cmdMembers(args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("members", stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "VIEW\tMEMBER\tSTATE\tINC\tADDR")
	views := 0
	for _, sv := range f.servers() {
		reply, err := sv.c.Members()
		if err != nil {
			fmt.Fprintf(stderr, "dgcctl: %s: %v\n", sv.nodes[0], err)
			continue
		}
		viewers := make([]string, 0, len(reply.Nodes))
		for id := range reply.Nodes {
			viewers = append(viewers, id)
		}
		sort.Strings(viewers)
		for _, viewer := range viewers {
			views++
			for _, m := range reply.Nodes[viewer] {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\n", viewer, m.Node, m.State, m.Incarnation, m.Addr)
			}
		}
	}
	tw.Flush()
	if views == 0 {
		fmt.Fprintln(stdout, "no membership directories (cluster running with membership off?)")
	}
	return 0
}

func cmdJoin(args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("join", stderr)
	name := fs.String("node", "", "new member's node id (or pass 'name=addr' positionally)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, addr := *name, ""
	switch fs.NArg() {
	case 1:
		arg := fs.Arg(0)
		if n, a, ok := strings.Cut(arg, "="); ok {
			id, addr = n, a
		} else {
			addr = arg
		}
	default:
		fmt.Fprintln(stderr, "usage: dgcctl join [-node NAME] <name=addr | addr>")
		return 2
	}
	if id == "" || addr == "" {
		return fail(stderr, fmt.Errorf("join needs the new member's name and transport address (name=addr)"))
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}
	// Seed the newcomer into every admin server: each hosted node records it
	// as joining and starts gossiping with it; the newcomer learns the rest
	// of the directory from the gossip it receives back.
	seeded := 0
	for _, sv := range f.servers() {
		if err := sv.c.Join(id, addr); err != nil {
			fmt.Fprintf(stderr, "dgcctl: %s: %v\n", sv.nodes[0], err)
			continue
		}
		seeded++
	}
	if seeded == 0 {
		return fail(stderr, fmt.Errorf("no server accepted the join"))
	}
	fmt.Fprintf(stdout, "member %s (%s) seeded into %d servers; gossip completes the join\n", id, addr, seeded)
	return 0
}

func cmdDrain(args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("drain", stderr)
	nodeID := fs.String("node", "", "node to drain (or pass it positionally)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id := *nodeID
	if fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "usage: dgcctl drain <node>")
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}
	if id == "" {
		if id, err = f.one(); err != nil {
			return fail(stderr, err)
		}
	}
	c, err := f.client(id)
	if err != nil {
		return fail(stderr, err)
	}
	if err := c.Drain(id); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s: draining (references migrating; the node declares itself dead when done)\n", id)
	return 0
}

// checkMembersReady fails fast when any hosted node still sees itself as
// "joining" — gossip hasn't completed, so a detection launched now would
// stall rather than converge. Servers without membership pass vacuously.
func checkMembersReady(f *fleet) error {
	for _, sv := range f.servers() {
		reply, err := sv.c.Members()
		if err != nil {
			continue // pre-membership server: nothing to check
		}
		for _, viewer := range sv.nodes {
			for _, m := range reply.Nodes[viewer] {
				if m.Node == viewer && m.State == "joining" {
					return fmt.Errorf("node %s is still joining (no gossip exchanged yet) — wait for 'dgcctl members' to show it alive", viewer)
				}
			}
		}
	}
	return nil
}

func cmdInject(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(stderr, "usage: dgcctl inject kill|restart|delay|drop|partition|heal [flags]")
		return 2
	}
	action, rest := args[0], args[1:]
	fs, ef := newFlagSet("inject "+action, stderr)
	nodeID := fs.String("node", "", "target node (optional on single-node clusters)")
	rate := fs.Float64("rate", 0, "drop probability for 'drop' (0..1)")
	delay := fs.Duration("delay", 0, "injected latency for 'delay'")
	peers := fs.String("peers", "", "comma-separated peers for 'partition' (empty = isolate from all)")
	ttl := fs.Duration("for", 0, "auto-heal delay/drop/partition after this long (0 = until healed)")
	recoverAfter := fs.Duration("recover", 0, "auto-restart after 'kill' (0 = stay down)")
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}
	id := *nodeID
	if id == "" {
		if id, err = f.one(); err != nil {
			return fail(stderr, err)
		}
	}
	c, err := f.client(id)
	if err != nil {
		return fail(stderr, err)
	}
	req := admin.InjectRequest{Action: action, Rate: *rate}
	if *delay > 0 {
		req.Delay = delay.String()
	}
	if *ttl > 0 {
		req.For = ttl.String()
	}
	if *recoverAfter > 0 {
		req.Recover = recoverAfter.String()
	}
	if *peers != "" {
		req.Peers = strings.Split(*peers, ",")
	}
	if err := c.Inject(id, req); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s: %s injected\n", id, action)
	return 0
}

func cmdSnapshot(args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("snapshot", stderr)
	nodeID := fs.String("node", "", "target node (optional on single-node clusters)")
	out := fs.String("o", "", "write the state here (default <node>.state)")
	restore := fs.String("restore", "", "restore the node from this state file instead of saving")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}
	id := *nodeID
	if id == "" {
		if id, err = f.one(); err != nil {
			return fail(stderr, err)
		}
	}
	c, err := f.client(id)
	if err != nil {
		return fail(stderr, err)
	}
	if *restore != "" {
		data, err := os.ReadFile(*restore)
		if err != nil {
			return fail(stderr, err)
		}
		if err := c.Restore(id, base64.StdEncoding.EncodeToString(data)); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "%s: restored %d bytes from %s\n", id, len(data), *restore)
		return 0
	}
	reply, err := c.Snapshot(id)
	if err != nil {
		return fail(stderr, err)
	}
	data, err := base64.StdEncoding.DecodeString(reply.State)
	if err != nil {
		return fail(stderr, err)
	}
	path := *out
	if path == "" {
		path = id + ".state"
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s: %d bytes saved to %s\n", id, len(data), path)
	return 0
}
