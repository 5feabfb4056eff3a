// dgc-node runs one process of the distributed system as a TCP daemon: an
// object heap with its local collector, reference-listing acyclic DGC and
// distributed cycle detector, driven by the wall-clock LiveRuntime (a
// mailbox goroutine whose one ticker says Tick — no manual tick loop).
//
// Usage:
//
//	dgc-node -id P1 -listen :7001 -peers P2=host2:7002,P3=host3:7003
//	         [-tick 250ms] [-lgc-every 2] [-snapshot-every 4] [-detect-every 4]
//	         [-snapshot-dir DIR] [-codec binary|reflect] [-seed-objects N]
//	         [-state-file FILE] [-metrics-addr :9090]
//
// With -metrics-addr the daemon serves the full admin control plane:
// Prometheus text at /metrics, versioned JSON diagnostics at /debug/dgc, and
// the /api/v1 operator API (status, tables, membership, the event journal,
// forced detection with trace ids, fault injection) that the dgcctl CLI
// drives.
//
// The -*-every flags count ticks (e.g. -tick 250ms -lgc-every 2 runs the
// local collector on every second tick, 500ms apart); daemons due on the
// same tick run in order: local GC, summarize, detect. On the first
// SIGINT/SIGTERM the daemon shuts down gracefully — collector state is
// flushed to -state-file (from which a restart resumes: heap, stub/scion
// tables with invocation counters, sequence numbers) and the transport
// closes cleanly. A second signal forces immediate exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dgc"
	"dgc/internal/admin"
)

// options are the daemon's own flags: the ones that do not describe the node.
type options struct {
	statsEvery  int
	metricsAddr string
	adminToken  string
	pprofMode   string
}

// parseArgs resolves the command line into the node's spec and the daemon's
// options. A flag named after a cluster-spec setting (-lgc-every is
// lgc_every) resolves through the spec's settings table, exactly as a node
// entry of `dgcctl up` does: the defaults printed by -h are read from it, and
// only the flags given on the command line override them.
func parseArgs(args []string) (admin.NodeSpec, options, error) {
	def, err := admin.NodeSettings("", nil)
	if err != nil {
		return admin.NodeSpec{}, options{}, err
	}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	isSetting := map[string]bool{}
	setting := func(name string) string {
		isSetting[name] = true
		return name
	}
	var o options
	id := fs.String("id", "", "node identifier (required)")
	listen := fs.String("listen", ":0", "listen address")
	peersFlag := fs.String("peers", "", "comma-separated name=addr peer list")
	fs.Duration(setting("tick"), def.Runtime.Tick, "tick period")
	fs.Uint64(setting("lgc-every"), def.Config.LGCEvery, "run the local GC every N ticks")
	fs.Uint64(setting("snapshot-every"), def.Config.SnapshotEvery, "summarize every N ticks")
	fs.Uint64(setting("detect-every"), def.Config.DetectEvery, "run cycle detection every N ticks")
	fs.Uint64(setting("candidate-age"), def.Config.CandidateMinAge, "scion quiescence ticks before candidacy")
	fs.String(setting("snapshot-dir"), def.Config.SnapshotDir, "write serialized snapshots here")
	fs.String(setting("codec"), "", "snapshot codec: binary or reflect")
	fs.Int(setting("seed-objects"), def.SeedObjects, "allocate N rooted demo objects at startup")
	fs.IntVar(&o.statsEvery, "stats-every", 10, "print stats every N ticks (0 = never)")
	fs.Uint64(setting("call-timeout"), def.Config.CallTimeoutTicks, "RPC timeout in ticks")
	fs.String(setting("state-file"), def.StateFile, "persist collector state here: loaded at startup if present, saved on shutdown")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve the admin API (Prometheus /metrics, /debug/dgc, /api/v1) on this address")
	fs.StringVar(&o.adminToken, "admin-token", os.Getenv("DGC_ADMIN_TOKEN"), "bearer token required on /api/v1 and /debug routes (default $DGC_ADMIN_TOKEN; empty = open)")
	fs.StringVar(&o.pprofMode, "pprof", "auto", "serve /debug/pprof on the admin address: on, off, or auto (loopback only)")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with usage
	if *id == "" {
		return admin.NodeSpec{}, o, fmt.Errorf("-id is required")
	}

	values := map[string]string{}
	fs.Visit(func(f *flag.Flag) {
		if isSetting[f.Name] {
			values[strings.ReplaceAll(f.Name, "-", "_")] = f.Value.String()
		}
	})
	spec, err := admin.NodeSettings(dgc.NodeID(*id), values)
	if err != nil {
		return admin.NodeSpec{}, o, err
	}
	spec.Listen = *listen
	spec.Peers = map[dgc.NodeID]string{}
	if *peersFlag != "" {
		for _, kv := range strings.Split(*peersFlag, ",") {
			name, addr, ok := strings.Cut(kv, "=")
			if !ok {
				return admin.NodeSpec{}, o, fmt.Errorf("malformed peer %q (want name=addr)", kv)
			}
			spec.Peers[dgc.NodeID(name)] = addr
		}
	}
	return spec, o, nil
}

func main() {
	spec, o, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Fatalf("dgc-node: %v", err)
	}
	id := spec.ID

	hadState := false
	if spec.StateFile != "" {
		if _, err := os.Stat(spec.StateFile); err == nil {
			hadState = true
		}
	}
	sup, err := admin.StartNode(spec)
	if err != nil {
		log.Fatal(err)
	}
	if hadState {
		fmt.Printf("restored state from %s (%d objects)\n", spec.StateFile, sup.DebugSnapshot().Objects)
	} else if spec.SeedObjects > 0 {
		fmt.Printf("seeded %d rooted objects\n", spec.SeedObjects)
	}
	fmt.Printf("dgc-node %s listening on %s (%d peers)\n", id, sup.Addr(), len(spec.Peers))

	if o.metricsAddr != "" {
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			log.Fatalf("dgc-node: metrics listen %s: %v", o.metricsAddr, err)
		}
		srv := admin.NewServer(sup)
		srv.SetToken(o.adminToken)
		if admin.PprofEnabled(o.pprofMode, o.metricsAddr) {
			srv.EnablePprof()
			fmt.Printf("pprof profiles on http://%s/debug/pprof/\n", ln.Addr())
		}
		go func() { _ = http.Serve(ln, srv.Handler()) }()
		defer ln.Close()
		fmt.Printf("admin API on http://%s (metrics at /metrics, diagnostics at /debug/dgc, events at /api/v1/events)\n", ln.Addr())
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// The runtime drives itself; this loop only reports.
	met := sup.NodeMetrics()
	var statsC <-chan time.Time
	if o.statsEvery > 0 {
		t := time.NewTicker(time.Duration(o.statsEvery) * spec.Runtime.Tick)
		defer t.Stop()
		statsC = t.C
	}
	for {
		select {
		case <-statsC:
			snap := sup.DebugSnapshot()
			fmt.Printf("[%s t=%d] objects=%d scions=%d stubs=%d swept=%d detections=%d cycles=%d aborted=%d\n",
				id, snap.Clock, snap.Objects, snap.Scions, snap.Stubs,
				met.ObjectsSwept.Value(), met.DetectionsStarted.Value(), met.CyclesFound.Value(), met.DetectionsAborted.Value())
		case got := <-sig:
			// Graceful: state flush + clean runtime/transport close. A second
			// signal while that is in flight forces exit.
			go func() {
				<-sig
				fmt.Println("\nsecond signal, forcing exit")
				os.Exit(1)
			}()
			snap := sup.DebugSnapshot()
			if err := sup.Stop(); err != nil {
				log.Printf("dgc-node: shutdown: %v", err)
			} else if spec.StateFile != "" {
				fmt.Printf("\nstate saved to %s\n", spec.StateFile)
			}
			fmt.Printf("dgc-node %s shut down on %v: %d objects, %d swept over %d ticks\n",
				id, got, snap.Objects, met.ObjectsSwept.Value(), snap.Clock)
			return
		}
	}
}
