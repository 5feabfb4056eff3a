package dgc_test

import (
	"strings"
	"testing"
	"time"

	"dgc"
)

// The live end-to-end test: a three-process distributed garbage cycle is
// built through RPC over real TCP sockets and reclaimed by the wall-clock
// LiveRuntime daemons alone — no simulation harness, no cluster.Settle, no
// manual GC driving. Midway, one node is killed (state saved, runtime and
// socket closed) and restarted on a fresh ephemeral port from its persisted
// state; any detection in flight across it aborts safely and restarts, and
// the cycle is still fully reclaimed.

const e2eDeadline = 20 * time.Second

func e2eWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(e2eDeadline)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLiveE2ECycleCollectedAcrossRestart(t *testing.T) {
	names := []dgc.NodeID{"A", "B", "C"}
	eps := make(map[dgc.NodeID]*dgc.TCPEndpoint, 3)
	for _, n := range names {
		ep, err := dgc.ListenTCP(n, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		eps[n] = ep
	}
	for _, n := range names {
		for _, p := range names {
			if n != p {
				eps[n].AddPeer(p, eps[p].Addr())
			}
		}
	}

	// One metric set spans all three nodes and survives B's restart: the
	// restored machine rebinds the same labeled series, so counters continue
	// rather than reset.
	metrics := dgc.NewMetricsSet()
	for _, n := range names {
		eps[n].SetMetrics(dgc.NewTransportMetrics(metrics.Node(string(n))))
	}

	cfg := dgc.Config{
		CallTimeoutTicks: 400, CandidateMinAge: 2, Metrics: metrics,
		LGCEvery: 2, SnapshotEvery: 4, DetectEvery: 4,
	}
	rcfg := dgc.RuntimeConfig{Tick: 10 * time.Millisecond}
	nodes := make(map[dgc.NodeID]*dgc.LiveRuntime, 3)
	for _, n := range names {
		nodes[n] = dgc.NewLiveRuntime(n, eps[n], cfg, rcfg)
	}
	defer func() {
		for _, n := range names {
			nodes[n].Close()
			eps[n].Close()
		}
	}()

	// The cluster's observability surface, read the way the admin server
	// renders it: the Prometheus text of the shared set.
	exposition := func() string {
		t.Helper()
		var buf strings.Builder
		if err := metrics.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// One anchor object per node, all rooted while we build: the periodic
	// local collectors are already running underneath, and an unrooted
	// anchor with no scion yet would be swept if an LGC pass won the race
	// against the incoming CreateScion. B's and C's roots are dropped once
	// the ring is linked; only A's persists.
	anchors := make(map[dgc.NodeID]dgc.GlobalRef, 3)
	for _, n := range names {
		var obj dgc.ObjID
		if err := nodes[n].With(func(m dgc.Mutator) {
			obj = m.Alloc([]byte("anchor-" + string(n)))
			if err := m.Root(obj); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		anchors[n] = dgc.GlobalRef{Node: n, Obj: obj}
	}

	// Ring A -> B -> C -> A via acquire + store RPCs over the wire.
	link := func(from, to dgc.NodeID) {
		t.Helper()
		done := make(chan bool, 1)
		target := anchors[to]
		holder := anchors[from].Obj
		if err := nodes[from].AcquireRemote(target, func(m dgc.Mutator, ok bool) {
			if ok {
				ok = m.Store(holder, target) == nil
			}
			done <- ok
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("linking %s -> %s failed", from, to)
			}
		case <-time.After(e2eDeadline):
			t.Fatalf("linking %s -> %s timed out", from, to)
		}
	}
	link("A", "B")
	link("B", "C")
	link("C", "A")
	for _, n := range []dgc.NodeID{"B", "C"} {
		obj := anchors[n].Obj
		if err := nodes[n].With(func(m dgc.Mutator) { m.Unroot(obj) }); err != nil {
			t.Fatal(err)
		}
	}

	total := func() int {
		sum := 0
		for _, n := range names {
			sum += nodes[n].NumObjects()
		}
		return sum
	}

	// The rooted ring must survive the periodic local collections that are
	// already running underneath us.
	time.Sleep(100 * time.Millisecond)
	if got := total(); got != 3 {
		t.Fatalf("rooted ring shrank to %d objects", got)
	}

	// Unroot: the ring is now a distributed garbage cycle only the cycle
	// detector can reclaim. Wait for a detection to actually start...
	if err := nodes["A"].With(func(m dgc.Mutator) { m.Unroot(anchors["A"].Obj) }); err != nil {
		t.Fatal(err)
	}
	e2eWait(t, "a detection to start", func() bool {
		for _, n := range names {
			if nodes[n].Metrics().DetectionsStarted.Value() > 0 {
				return true
			}
		}
		return false
	})

	// Mid-run: the full metric surface is live while detections are in
	// flight, and the structural diagnostic serves B with its mailbox.
	if families := strings.Count(exposition(), "# TYPE dgc_"); families < 15 {
		t.Fatalf("only %d dgc_ metric families exposed mid-run", families)
	}
	if snap := nodes["B"].DebugSnapshot(); snap.Node != "B" || snap.Mailbox == nil {
		t.Fatalf("debug snapshot of B missing node structure: %+v", snap)
	}

	// ...then kill B mid-detection: persist its collector state, stop its
	// runtime and close its socket.
	state, err := nodes["B"].Save()
	if err != nil {
		t.Fatal(err)
	}
	nodes["B"].Close()
	if err := eps["B"].Close(); err != nil {
		t.Fatal(err)
	}

	// Restart B on a fresh ephemeral port from the persisted state and
	// repoint its peers at the new address.
	epB, err := dgc.ListenTCP("B", "127.0.0.1:0", map[dgc.NodeID]string{
		"A": eps["A"].Addr(),
		"C": eps["C"].Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eps["B"] = epB
	epB.SetMetrics(dgc.NewTransportMetrics(metrics.Node("B")))
	rb, err := dgc.RestoreLiveRuntime(epB, cfg, rcfg, state)
	if err != nil {
		t.Fatal(err)
	}
	nodes["B"] = rb
	eps["A"].AddPeer("B", epB.Addr())
	eps["C"].AddPeer("B", epB.Addr())

	// The restarted node resumes as if it had merely been slow: the
	// detection spanning the restart aborts safely and a later round
	// reclaims the whole cycle, with zero manual driving.
	e2eWait(t, "cycle reclamation after restart", func() bool { return total() == 0 })

	found := uint64(0)
	for _, n := range names {
		found += nodes[n].Metrics().CyclesFound.Value()
	}
	if found == 0 {
		t.Fatal("no completed cycle detection recorded")
	}
	scions := 0
	for _, n := range names {
		scions += nodes[n].NumScions()
	}
	if scions != 0 {
		t.Fatalf("%d scions left after reclamation", scions)
	}

	// Final read: at least one node carried a detection from first sight to
	// a terminal outcome, so a completed-detection latency sample exists; the
	// transport series rode the same set the whole way.
	final := exposition()
	sawSample := false
	for _, line := range strings.Split(final, "\n") {
		if strings.HasPrefix(line, "dgc_detection_latency_seconds_count{") &&
			!strings.HasSuffix(line, " 0") {
			sawSample = true
		}
	}
	if !sawSample {
		t.Fatal("no completed-detection latency sample after reclamation")
	}
	if !strings.Contains(final, "dgc_transport_msgs_sent_total") {
		t.Fatal("transport series missing from the shared metric set")
	}
}
