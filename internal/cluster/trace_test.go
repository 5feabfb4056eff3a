package cluster

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/trace"
	"dgc/internal/transport"
	"dgc/internal/wire"
	"dgc/internal/workload"
)

// TestTraceRecordsCollectionStory verifies the node layer narrates a full
// Figure 3 collection: collections, summarizations, detection starts, CDM
// handling, the cycle-found event and both scion-deletion reasons.
func TestTraceRecordsCollectionStory(t *testing.T) {
	log := trace.New(4096)
	cfg := node.Config{Trace: log}
	c := New(1, cfg)
	if _, err := c.Materialize(workload.Figure3(), cfg); err != nil {
		t.Fatal(err)
	}
	c.CollectFully(12)
	if c.TotalObjects() != 0 {
		t.Fatal("not collected")
	}

	if len(log.OfKind(trace.KindLGC)) == 0 {
		t.Error("no LGC events")
	}
	if len(log.OfKind(trace.KindSummarize)) == 0 {
		t.Error("no summarize events")
	}
	starts := log.OfKind(trace.KindDetectionStart)
	if len(starts) == 0 {
		t.Error("no detection-start events")
	}
	found := log.OfKind(trace.KindCycleFound)
	if len(found) == 0 {
		t.Fatal("no cycle-found events")
	}
	if !strings.Contains(found[0].Detail, "scions=4") {
		t.Errorf("cycle-found detail = %q, want the 4-scion cycle", found[0].Detail)
	}
	// All four cycle scions disappear, each attributed to a reason (the
	// detector's own deletion, or the stub-set cascade when another node's
	// detection beat this one's).
	var cycleDel, stubSetDel int
	for _, e := range log.OfKind(trace.KindScionDeleted) {
		switch {
		case strings.Contains(e.Detail, "reason=cycle"):
			cycleDel++
		case strings.Contains(e.Detail, "reason=stub-set"):
			stubSetDel++
		}
	}
	if cycleDel == 0 {
		t.Error("no cycle-reason scion deletions")
	}
	if cycleDel+stubSetDel != 4 {
		t.Errorf("scion deletions = %d cycle + %d stub-set, want 4 total", cycleDel, stubSetDel)
	}
	// A cycle-found event must come after at least one CDM event.
	events := log.Snapshot()
	firstCDM, firstFound := uint64(0), uint64(0)
	for _, e := range events {
		if e.Kind == trace.KindCDMHandled && firstCDM == 0 {
			firstCDM = e.Seq
		}
		if e.Kind == trace.KindCycleFound && firstFound == 0 {
			firstFound = e.Seq
		}
	}
	if firstCDM == 0 || firstFound == 0 || firstFound < firstCDM {
		t.Errorf("event order wrong: firstCDM=%d firstFound=%d", firstCDM, firstFound)
	}
}

func TestTraceRecordsInvocations(t *testing.T) {
	log := trace.New(256)
	cfg := node.Config{Trace: log}
	c := New(1, cfg, "A", "B")
	var target ids.ObjID
	c.Node("B").With(func(m node.Mutator) { target = m.Alloc(nil) })
	var holder ids.ObjID
	c.Node("A").With(func(m node.Mutator) {
		holder = m.Alloc(nil)
		if err := m.Root(holder); err != nil {
			t.Error(err)
		}
	})
	if err := c.Connect("A", holder, "B", target); err != nil {
		t.Fatal(err)
	}
	if err := c.Node("A").Invoke(ids.GlobalRef{Node: "B", Obj: target}, "noop", nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	invokes := log.OfKind(trace.KindInvoke)
	if len(invokes) != 1 || invokes[0].Node != "B" || !strings.Contains(invokes[0].Detail, "method=noop") {
		t.Fatalf("invoke events = %+v", invokes)
	}
}

// TestEveryNodeDerivesTheSameTraceID: no detection message carries a trace
// id, so each node derives it from the detection id where it journals. On a
// stepped ring and a web graph, with lossy, duplicating, reordering
// collector traffic, every journal event whose detail names a detection
// carries that detection's core.TraceIDFor, on every node, and every kind of
// event a detection journals shows up (the web graph's split closures bring
// the partial returns and relaunches).
func TestEveryNodeDerivesTheSameTraceID(t *testing.T) {
	detRE := regexp.MustCompile(`\bdet=([^/ ]+)/(\d+)\b`)
	kinds := map[trace.Kind]int{}
	for _, tc := range []struct {
		topo   *workload.Topology
		procs  int
		rounds int
	}{
		{workload.Ring(4, 2), 4, 12},
		{workload.WebGraph(1, 6, 4, 6), 6, 30},
	} {
		log := trace.New(1 << 17)
		cfg := node.Config{Trace: log}
		c := New(3, cfg)
		if _, err := c.Materialize(tc.topo, cfg); err != nil {
			t.Fatal(err)
		}
		c.Net.SetFaults(transport.Faults{LossRate: 0.2, DupRate: 0.2, ReorderRate: 0.3, Affects: wire.CollectorKinds()})
		for i := 0; i < tc.rounds; i++ {
			c.GCRound()
		}
		nodes := map[ids.NodeID]bool{}
		for _, e := range log.Snapshot() {
			if e.Kind == trace.KindDropped {
				t.Fatalf("%s: journal evicted events; enlarge it", tc.topo.Name)
			}
			m := detRE.FindStringSubmatch(e.Detail)
			if m == nil {
				if e.Trace != 0 {
					t.Errorf("%s %s %q: trace id %#x on an event naming no detection", e.Node, e.Kind, e.Detail, e.Trace)
				}
				continue
			}
			seq, err := strconv.ParseUint(m[2], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if want := core.TraceIDFor(core.DetectionID{Origin: ids.NodeID(m[1]), Seq: seq}); e.Trace != want {
				t.Errorf("%s %s %q: trace id %#x, want %#x", e.Node, e.Kind, e.Detail, e.Trace, want)
			}
			kinds[e.Kind]++
			nodes[e.Node] = true
		}
		if len(nodes) != tc.procs {
			t.Errorf("%s: detection events on %d nodes, want all %d", tc.topo.Name, len(nodes), tc.procs)
		}
	}
	t.Logf("events naming a detection, by kind: %v", kinds)
	for _, k := range []trace.Kind{trace.KindDetectionStart, trace.KindCDMSent, trace.KindCDMHandled,
		trace.KindPartialReturn, trace.KindRelaunch, trace.KindCycleFound, trace.KindDetectionEnd} {
		if kinds[k] == 0 {
			t.Errorf("no %s event naming a detection", k)
		}
	}
}
