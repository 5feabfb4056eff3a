package cli

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"dgc/internal/admin"
)

// traceEvent is one journal event tagged with its parsed wall-clock stamp,
// ready for cross-node merging. Events from different nodes carry
// independent sequence numbers, so the timestamp is the merge key.
type traceEvent struct {
	admin.EventJSON
	at time.Time
}

// collectTrace pulls every retained event for one causal trace id from every
// node in the fleet and returns them merged in time order.
func collectTrace(ctx context.Context, f *fleet, traceID string) ([]traceEvent, error) {
	var all []traceEvent
	var lastErr error
	ok := 0
	for _, id := range f.nodeIDs() {
		_, err := f.clients[id].StreamEvents(ctx, EventStreamOptions{TraceID: traceID}, func(e admin.EventJSON) bool {
			if e.Seq == 0 {
				return true // truncation marker, not a journal event
			}
			te := traceEvent{EventJSON: e}
			if e.TS != "" {
				if t, err := time.Parse(time.RFC3339Nano, e.TS); err == nil {
					te.at = t
				}
			}
			all = append(all, te)
			return true
		})
		if err != nil {
			lastErr = err
			continue
		}
		ok++
	}
	if ok == 0 && lastErr != nil {
		return nil, lastErr
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	return all, nil
}

// detailField extracts key=value fields from an event detail string
// ("det=A/3 to=B along=... hops=2" -> detailField(d, "to") == "B").
func detailField(detail, key string) string {
	for _, tok := range strings.Fields(detail) {
		if v, found := strings.CutPrefix(tok, key+"="); found {
			return v
		}
	}
	return ""
}

// span is one node's slice of a detection timeline: the events that ran
// there, plus the child nodes the detection was forwarded to from here.
type span struct {
	node     string
	events   []traceEvent
	children []*span
}

// buildSpanTree assembles the causal span tree for one trace from its
// time-ordered events. The root is the node that recorded detection-start;
// parent edges come from cdm-sent/batch-cdm "to=" fields, walked in time
// order so a node attaches under the first connected node that sent to it.
// Events on nodes never named by a send (possible when the ring truncated
// the linking event) attach under the root rather than being dropped.
func buildSpanTree(events []traceEvent) *span {
	if len(events) == 0 {
		return nil
	}
	spans := make(map[string]*span)
	order := []string{}
	get := func(node string) *span {
		if s, ok := spans[node]; ok {
			return s
		}
		s := &span{node: node}
		spans[node] = s
		order = append(order, node)
		return s
	}
	for _, e := range events {
		get(e.Node).events = append(get(e.Node).events, e)
	}

	root := ""
	for _, e := range events {
		if e.Kind == "detection-start" {
			root = e.Node
			break
		}
	}
	if root == "" {
		root = order[0] // truncated history: oldest-seen node stands in
	}

	attached := map[string]bool{root: true}
	attach := func(parent, child string) {
		if attached[child] || child == parent {
			return
		}
		if _, ok := spans[child]; !ok {
			return // sent to a node that recorded nothing we can see
		}
		p := spans[parent]
		p.children = append(p.children, spans[child])
		attached[child] = true
	}
	// Walk sends in time order; only a node already in the tree may adopt,
	// so causality flows outward from the root.
	for _, e := range events {
		if e.Kind != "cdm-sent" && e.Kind != "batch-cdm" {
			continue
		}
		to := detailField(e.Detail, "to")
		if to == "" || !attached[e.Node] {
			continue
		}
		attach(e.Node, to)
	}
	// Orphans (linking event truncated or filtered): hang under the root.
	for _, node := range order {
		if !attached[node] {
			attach(root, node)
		}
	}
	return spans[root]
}

// terminalEvent reports whether the trace reached a terminal outcome: the
// origin emitted detection-end, or a cycle was confirmed anywhere.
func terminalEvent(events []traceEvent) (traceEvent, bool) {
	for i := len(events) - 1; i >= 0; i-- {
		if k := events[i].Kind; k == "detection-end" || k == "cycle-found" {
			return events[i], true
		}
	}
	return traceEvent{}, false
}

// printSpanTree renders the causal tree: one block per node in causal
// (forwarding) order, events stamped relative to the first event of the
// whole trace.
func printSpanTree(w io.Writer, root *span, t0 time.Time) {
	var walk func(s *span, depth int)
	walk = func(s *span, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(w, "%s%s (%d events)\n", indent, s.node, len(s.events))
		for _, e := range s.events {
			rel := "      ?"
			if !e.at.IsZero() && !t0.IsZero() {
				rel = fmt.Sprintf("+%s", e.at.Sub(t0).Round(10*time.Microsecond))
			}
			fmt.Fprintf(w, "%s  %-12s %-15s %s\n", indent, rel, e.Kind, e.Detail)
		}
		// Children in order of first event, so siblings read chronologically.
		sort.SliceStable(s.children, func(i, j int) bool {
			ci, cj := s.children[i], s.children[j]
			if len(ci.events) == 0 || len(cj.events) == 0 {
				return len(cj.events) == 0
			}
			return ci.events[0].at.Before(cj.events[0].at)
		})
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}

func cmdTrace(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("trace", stderr)
	wait := fs.Duration("wait", 0, "keep polling until the trace reaches a terminal event")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: dgcctl trace [flags] <trace-id>")
		return 2
	}
	traceID := fs.Arg(0)
	if _, err := strconv.ParseUint(traceID, 16, 64); err != nil {
		return fail(stderr, fmt.Errorf("bad trace id %q: want hex as printed by detect", traceID))
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}

	deadline := time.Now().Add(*wait)
	var events []traceEvent
	for {
		events, err = collectTrace(ctx, f, traceID)
		if err != nil {
			return fail(stderr, err)
		}
		if _, done := terminalEvent(events); done || *wait <= 0 || time.Now().After(deadline) {
			break
		}
		select {
		case <-ctx.Done():
			return 1
		case <-time.After(100 * time.Millisecond):
		}
	}
	if len(events) == 0 {
		return fail(stderr, fmt.Errorf("no events for trace %s (expired from the ring, or wrong id?)", traceID))
	}

	root := buildSpanTree(events)
	nodes := make(map[string]bool)
	for _, e := range events {
		nodes[e.Node] = true
	}
	term, done := terminalEvent(events)
	outcome := "in flight"
	if done {
		outcome = term.Kind
		if o := detailField(term.Detail, "outcome"); o != "" {
			outcome = o
		}
	}
	fmt.Fprintf(stdout, "trace %s: %d events across %d nodes, %s\n",
		traceID, len(events), len(nodes), outcome)
	printSpanTree(stdout, root, events[0].at)
	return 0
}
