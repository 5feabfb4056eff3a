package node

import (
	"reflect"
	"strings"
	"testing"

	"dgc/internal/ids"
	"dgc/internal/refs"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// testNet spins up nodes on one deterministic in-proc network.
type testNet struct {
	t     *testing.T
	net   *transport.Network
	nodes map[ids.NodeID]*Node
}

// newTestNet builds stepped nodes, the scheduler nearly every test wants.
func newTestNet(t *testing.T, cfg Config, names ...ids.NodeID) *testNet {
	mk := func(_ *testing.T, id ids.NodeID, ep transport.Endpoint) *Node { return New(id, ep, cfg) }
	return newTestNetOf(t, mk, names...)
}

func newTestNetOf(t *testing.T, mk func(*testing.T, ids.NodeID, transport.Endpoint) *Node, names ...ids.NodeID) *testNet {
	tn := &testNet{t: t, net: transport.NewNetwork(1), nodes: map[ids.NodeID]*Node{}}
	for _, name := range names {
		tn.nodes[name] = mk(t, name, tn.net.Endpoint(name))
	}
	return tn
}

// settle pumps the network to quiescence. A started node consumes its
// deliveries on its own loop, so after each drain every node is asked a
// question — answered only once everything queued before it has been
// consumed and its effects flushed — until a whole pass leaves nothing in
// flight. For stepped nodes the first pass already does.
func (tn *testNet) settle() {
	for {
		tn.net.Drain(0)
		for _, n := range tn.nodes {
			n.Clock()
		}
		if tn.net.Pending() == 0 {
			return
		}
	}
}

func (tn *testNet) n(id ids.NodeID) *Node { return tn.nodes[id] }

// grant bootstraps: object fromObj at from references toObj at to.
func (tn *testNet) grant(from ids.NodeID, fromObj ids.ObjID, to ids.NodeID, toObj ids.ObjID) {
	tn.t.Helper()
	if err := tn.n(to).EnsureScionFor(from, toObj); err != nil {
		tn.t.Fatal(err)
	}
	if err := tn.n(from).HoldRemote(fromObj, ids.GlobalRef{Node: to, Obj: toObj}); err != nil {
		tn.t.Fatal(err)
	}
}

func allocRooted(t *testing.T, n *Node) ids.ObjID {
	t.Helper()
	var obj ids.ObjID
	var err error
	n.With(func(m Mutator) {
		obj = m.Alloc(nil)
		err = m.Root(obj)
	})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func alloc(n *Node) ids.ObjID {
	var obj ids.ObjID
	n.With(func(m Mutator) { obj = m.Alloc(nil) })
	return obj
}

func TestInvokeNoopBumpsBothCounters(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	target := alloc(b)
	tn.grant("A", holder, "B", target)

	gotReply := false
	ref := ids.GlobalRef{Node: "B", Obj: target}
	if err := a.Invoke(ref, "noop", nil, func(_ Mutator, r Reply) {
		gotReply = true
		if !r.OK {
			t.Errorf("reply not OK: %s", r.Err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if !gotReply {
		t.Fatal("no reply")
	}
	if met := a.Metrics(); met.InvokesSent.Value() != 1 || met.RepliesHandled.Value() != 1 {
		t.Fatalf("caller: %d invokes sent, %d replies handled; want 1 and 1",
			met.InvokesSent.Value(), met.RepliesHandled.Value())
	}
	// Request bumped both ends once, reply bumped both ends once: 2 == 2.
	a.With(func(m Mutator) {
		if ic, _ := m.n.table.StubIC(ref); ic != 2 {
			t.Errorf("stub IC = %d, want 2", ic)
		}
	})
	b.With(func(m Mutator) {
		if ic, _ := m.n.table.ScionIC("A", target); ic != 2 {
			t.Errorf("scion IC = %d, want 2", ic)
		}
	})
}

// A summary taken after an invocation carries the counters the invocation
// left behind; a stale counter would abort every detection through the
// reference.
func TestSummaryCarriesInvocationCounters(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	target := alloc(b)
	tn.grant("A", holder, "B", target)
	ref := ids.GlobalRef{Node: "B", Obj: target}

	for _, n := range []*Node{a, b} {
		if err := n.Summarize(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Invoke(ref, "noop", nil, nil); err != nil {
		t.Fatal(err)
	}
	// A summarizes between its request and the reply, so only the reply's
	// bump separates this summary from the next.
	if err := a.Summarize(); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	for _, n := range []*Node{a, b} {
		if err := n.Summarize(); err != nil {
			t.Fatal(err)
		}
	}
	a.With(func(m Mutator) {
		want, _ := m.n.table.StubIC(ref)
		if got, _ := m.n.Summary().Stub(ref); got.IC != want {
			t.Errorf("A's summary stub IC = %d, table holds %d", got.IC, want)
		}
	})
	b.With(func(m Mutator) {
		rid := ids.RefID{Src: "A", Dst: ref}
		want, _ := m.n.table.ScionIC("A", target)
		if got, _ := m.n.Summary().Scion(rid); got.IC != want {
			t.Errorf("B's summary scion IC = %d, table holds %d", got.IC, want)
		}
	})
}

func TestInvokeValidation(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a := tn.n("A")
	// Local target.
	if err := a.Invoke(ids.GlobalRef{Node: "A", Obj: 1}, "noop", nil, nil); err == nil {
		t.Error("local target accepted")
	}
	// Reference not held.
	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: 1}, "noop", nil, nil); err == nil {
		t.Error("unheld reference accepted")
	}
	// Exporting a nonexistent own object.
	holder := allocRooted(t, a)
	target := alloc(tn.n("B"))
	tn.grant("A", holder, "B", target)
	err := a.Invoke(ids.GlobalRef{Node: "B", Obj: target}, "store",
		[]ids.GlobalRef{{Node: "A", Obj: 999}}, nil)
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("err = %v", err)
	}
}

func TestInvokeNoSuchMethodAndObject(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	target := alloc(b)
	tn.grant("A", holder, "B", target)
	ref := ids.GlobalRef{Node: "B", Obj: target}

	var errs []string
	cb := func(_ Mutator, r Reply) {
		if !r.OK {
			errs = append(errs, r.Err)
		}
	}
	if err := a.Invoke(ref, "bogus", nil, cb); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	// Delete the object at B, then invoke again.
	b.With(func(m Mutator) { m.n.heap.Delete(target) })
	if err := a.Invoke(ref, "noop", nil, cb); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if len(errs) != 2 || !strings.Contains(errs[0], "no such method") || !strings.Contains(errs[1], "no such object") {
		t.Fatalf("errs = %v", errs)
	}
	if got := a.Metrics().CallsFailed.Value(); got != 2 {
		t.Fatalf("CallsFailed = %d", got)
	}
}

func TestStoreExportCreatesScionAndStub(t *testing.T) {
	// A exports a reference to its own object X into B's object: scion
	// (B -> X) at A, stub at B, and B's object holds the remote ref.
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	x := alloc(a)
	a.With(func(m Mutator) {
		if err := m.Link(holder, x); err != nil {
			t.Error(err)
		}
	})
	target := alloc(b)
	b.With(func(m Mutator) {
		if err := m.Root(target); err != nil {
			t.Error(err)
		}
	})
	tn.grant("A", holder, "B", target)

	xRef := ids.GlobalRef{Node: "A", Obj: x}
	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: target}, "store", []ids.GlobalRef{xRef}, nil); err != nil {
		t.Fatal(err)
	}
	tn.settle()

	a.With(func(m Mutator) {
		if !m.n.table.HasScion("B", x) {
			t.Error("scion (B -> X) missing at A")
		}
	})
	b.With(func(m Mutator) {
		if !m.n.table.HasStub(xRef) {
			t.Error("stub for X missing at B")
		}
		refs := m.Refs(target)
		if len(refs) != 1 || refs[0] != xRef {
			t.Errorf("target refs = %v", refs)
		}
	})
	// Now A drops its local path to X and collects: X must SURVIVE thanks
	// to B's scion.
	a.With(func(m Mutator) {
		if err := m.Unlink(holder, x); err != nil {
			t.Error(err)
		}
	})
	a.RunLGC()
	tn.settle()
	a.With(func(m Mutator) {
		if !m.Exists(x) {
			t.Error("X reclaimed despite remote reference")
		}
	})
}

func TestThirdPartyExportViaCreateScion(t *testing.T) {
	// A holds refs to C's objects and exports them to B: CreateScion flows
	// A -> C, then the invoke A -> B.
	tn := newTestNet(t, Config{}, "A", "B", "C")
	a, b, c := tn.n("A"), tn.n("B"), tn.n("C")
	holderA := allocRooted(t, a)
	objC, objC2 := alloc(c), alloc(c)
	tn.grant("A", holderA, "C", objC)
	tn.grant("A", holderA, "C", objC2)
	targetB := alloc(b)
	b.With(func(m Mutator) {
		if err := m.Root(targetB); err != nil {
			t.Error(err)
		}
	})
	tn.grant("A", holderA, "B", targetB)

	cRef, cRef2 := ids.GlobalRef{Node: "C", Obj: objC}, ids.GlobalRef{Node: "C", Obj: objC2}
	invoke := func(args ...ids.GlobalRef) {
		t.Helper()
		done := false
		if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: targetB}, "store",
			args, func(_ Mutator, r Reply) {
				done = true
				if !r.OK {
					t.Errorf("reply: %s", r.Err)
				}
			}); err != nil {
			t.Fatal(err)
		}
		tn.settle()
		if !done {
			t.Fatal("no reply")
		}
	}
	invoke(cRef)
	c.With(func(m Mutator) {
		if !m.n.table.HasScion("B", objC) {
			t.Error("scion (B -> objC) missing at C")
		}
	})
	b.With(func(m Mutator) {
		if !m.n.table.HasStub(cRef) {
			t.Error("stub for objC missing at B")
		}
	})

	// Two references owned by C, one of them twice, cost one CreateScion:
	// it lists all three arguments.
	sent, _, _ := tn.net.Counts()
	before := sent[wire.KindCreateScion]
	invoke(cRef, cRef2, cRef)
	if sent, _, _ = tn.net.Counts(); sent[wire.KindCreateScion] != before+1 {
		t.Errorf("CreateScions for one export to C = %d, want 1", sent[wire.KindCreateScion]-before)
	}

	// Every copy bumped its pair on both ends equally: the owner bumps its
	// scion once per listed entry, as the exporter bumped its stub once per
	// argument.
	for _, holder := range []*Node{a, b} {
		var stubs []refs.Stub
		holder.With(func(m Mutator) { stubs = m.n.table.Stubs() })
		for _, st := range stubs {
			var scionIC uint64
			var ok bool
			tn.n(st.Target.Node).With(func(m Mutator) {
				scionIC, ok = m.n.table.ScionIC(holder.ID(), st.Target.Obj)
			})
			if !ok || st.IC != scionIC {
				t.Errorf("%s -> %v: stub IC %d, scion IC %d (exists %v)", holder.ID(), st.Target, st.IC, scionIC, ok)
			}
		}
	}
	var stubIC uint64
	a.With(func(m Mutator) { stubIC, _ = m.n.table.StubIC(cRef) })
	if stubIC != 3 {
		t.Errorf("A's stub to objC counted %d copies, want 3", stubIC)
	}
}

func TestThirdPartyExportFailureFailsCall(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B", "C")
	a, b := tn.n("A"), tn.n("B")
	holderA := allocRooted(t, a)
	targetB := alloc(b)
	tn.grant("A", holderA, "B", targetB)
	// A claims to hold a reference to a nonexistent C object via pin
	// backdoor (simulating a stale reference).
	staleRef := ids.GlobalRef{Node: "C", Obj: 42}
	if err := a.HoldRemote(holderA, staleRef); err != nil {
		t.Fatal(err)
	}
	var reply *Reply
	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: targetB}, "store",
		[]ids.GlobalRef{staleRef}, func(_ Mutator, r Reply) { reply = &r }); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if reply == nil || reply.OK || !strings.Contains(reply.Err, "export failed") {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestGetReturnsRefsAndImportsThem(t *testing.T) {
	// B's object holds a ref to C's object; A calls get on it and receives
	// (imports) the reference, becoming able to invoke C directly.
	tn := newTestNet(t, Config{}, "A", "B", "C")
	a, b, c := tn.n("A"), tn.n("B"), tn.n("C")
	holderA := allocRooted(t, a)
	objB := alloc(b)
	b.With(func(m Mutator) {
		if err := m.Root(objB); err != nil {
			t.Error(err)
		}
	})
	objC := alloc(c)
	tn.grant("B", objB, "C", objC)
	tn.grant("A", holderA, "B", objB)

	cRef := ids.GlobalRef{Node: "C", Obj: objC}
	var got []ids.GlobalRef
	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: objB}, "get", nil,
		func(m Mutator, r Reply) {
			if !r.OK {
				t.Errorf("get failed: %s", r.Err)
				return
			}
			got = r.Returns
			// Store the imported ref while pinned.
			for _, ref := range r.Returns {
				if err := m.Store(holderA, ref); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if len(got) != 1 || got[0] != cRef {
		t.Fatalf("returns = %v", got)
	}
	// A can now invoke C.
	ok := false
	if err := a.Invoke(cRef, "noop", nil, func(_ Mutator, r Reply) { ok = r.OK }); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if !ok {
		t.Fatal("invoke through imported reference failed")
	}
	// Scion (A -> objC) must exist at C (created during return export).
	c.With(func(m Mutator) {
		if !m.n.table.HasScion("A", objC) {
			t.Error("scion (A -> objC) missing at C")
		}
	})
}

func TestAcquireRemote(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	target := alloc(b)
	ref := ids.GlobalRef{Node: "B", Obj: target}

	acquired := false
	if err := a.AcquireRemote(ref, func(m Mutator, ok bool) {
		acquired = ok
		if ok {
			if err := m.Store(holder, ref); err != nil {
				t.Error(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if !acquired {
		t.Fatal("acquire failed")
	}
	b.With(func(m Mutator) {
		if !m.n.table.HasScion("A", target) {
			t.Error("scion missing after acquire")
		}
	})
	// Acquire of a local or missing object.
	if err := a.AcquireRemote(ids.GlobalRef{Node: "A", Obj: 1}, nil); err == nil {
		t.Error("local acquire accepted")
	}
	failed := false
	if err := a.AcquireRemote(ids.GlobalRef{Node: "B", Obj: 999}, func(_ Mutator, ok bool) {
		failed = !ok
	}); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if !failed {
		t.Error("acquire of missing object reported success")
	}
}

func TestAllocChildMethod(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	target := alloc(b)
	b.With(func(m Mutator) {
		if err := m.Root(target); err != nil {
			t.Error(err)
		}
	})
	tn.grant("A", holder, "B", target)

	var child ids.GlobalRef
	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: target}, "alloc-child", nil,
		func(m Mutator, r Reply) {
			if !r.OK || len(r.Returns) != 1 {
				t.Errorf("reply = %+v", r)
				return
			}
			child = r.Returns[0]
			if err := m.Store(holder, child); err != nil {
				t.Error(err)
			}
		}); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if child.Node != "B" {
		t.Fatalf("child = %v", child)
	}
	if b.NumObjects() != 2 {
		t.Fatalf("B objects = %d", b.NumObjects())
	}
	// A holds the child remotely: scion must exist.
	b.With(func(m Mutator) {
		if !m.n.table.HasScion("A", child.Obj) {
			t.Error("scion for returned child missing")
		}
	})
}

func TestDropAllAndDropMethods(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	target := alloc(b)
	other := alloc(b)
	b.With(func(m Mutator) {
		if err := m.Root(target); err != nil {
			t.Error(err)
		}
		if err := m.Link(target, other); err != nil {
			t.Error(err)
		}
	})
	tn.grant("A", holder, "B", target)

	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: target}, "drop-all", nil, nil); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	b.With(func(m Mutator) {
		if refs := m.Refs(target); len(refs) != 0 {
			t.Errorf("refs after drop-all = %v", refs)
		}
	})
}

func TestDisableDGCSkipsBookkeeping(t *testing.T) {
	tn := newTestNet(t, Config{DisableDGC: true}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	target := alloc(b)
	ok := false
	// No stub needed with DGC disabled.
	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: target}, "noop", nil,
		func(_ Mutator, r Reply) { ok = r.OK }); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	if !ok {
		t.Fatal("invoke failed")
	}
	if a.NumStubs() != 0 || b.NumScions() != 0 {
		t.Fatalf("bookkeeping happened: stubs=%d scions=%d", a.NumStubs(), b.NumScions())
	}
}

func TestCallTimeoutReleasesPins(t *testing.T) {
	tn := newTestNet(t, Config{CallTimeoutTicks: 2}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	target := alloc(b)
	tn.grant("A", holder, "B", target)
	// Lose the request so no reply ever comes.
	tn.net.SetFaults(transport.Faults{LossRate: 1.0, Affects: []wire.Kind{wire.KindInvokeRequest}})

	var timedOut bool
	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: target}, "noop", nil,
		func(_ Mutator, r Reply) { timedOut = !r.OK && strings.Contains(r.Err, "timed out") }); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	a.Tick()
	a.Tick()
	a.Tick()
	if !timedOut {
		t.Fatal("call did not time out")
	}
	a.With(func(m Mutator) {
		if len(m.n.pins) != 0 {
			t.Errorf("pins leaked: %v", m.n.pins)
		}
	})
}

// TestLostCreateScionExpiresExport loses the one CreateScion of an export —
// a bootstrap acquisition, and a third-party reference passed as an
// invocation argument — and expects the export to expire like a pending
// call: the callback reports failure, the pins are released, no export stays
// pending, and every node's tables return to their pre-call sizes.
func TestLostCreateScionExpiresExport(t *testing.T) {
	type sizes struct{ objects, scions, stubs int }
	for _, tc := range []struct {
		name  string
		start func(a *Node, b, c ids.GlobalRef, failed *bool) error
	}{
		{"acquire", func(a *Node, _, c ids.GlobalRef, failed *bool) error {
			return a.AcquireRemote(c, func(_ Mutator, ok bool) { *failed = !ok })
		}},
		{"third-party", func(a *Node, b, c ids.GlobalRef, failed *bool) error {
			return a.Invoke(b, "store", []ids.GlobalRef{c}, func(_ Mutator, r Reply) {
				*failed = !r.OK && strings.Contains(r.Err, "timed out")
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTestNet(t, Config{CallTimeoutTicks: 4}, "A", "B", "C")
			names := []ids.NodeID{"A", "B", "C"}
			holder := allocRooted(t, tn.n("A"))
			b := ids.GlobalRef{Node: "B", Obj: allocRooted(t, tn.n("B"))}
			c := ids.GlobalRef{Node: "C", Obj: allocRooted(t, tn.n("C"))}
			tn.grant("A", holder, "B", b.Obj)
			if tc.name == "third-party" {
				tn.grant("A", holder, "C", c.Obj)
			}
			round := func() {
				for _, id := range names {
					tn.n(id).RunLGC()
					tn.settle()
				}
			}
			measure := func() map[ids.NodeID]sizes {
				out := make(map[ids.NodeID]sizes)
				for _, id := range names {
					n := tn.n(id)
					out[id] = sizes{n.NumObjects(), n.NumScions(), n.NumStubs()}
				}
				return out
			}
			round()
			before := measure()

			var failed bool
			tn.net.SetFaults(transport.Faults{LossRate: 1, Affects: []wire.Kind{wire.KindCreateScion}})
			if err := tc.start(tn.n("A"), b, c, &failed); err != nil {
				t.Fatal(err)
			}
			tn.net.SetFaults(transport.Faults{})
			tn.settle()
			for i := 0; i < 5; i++ {
				tn.n("A").Tick()
				tn.settle()
			}
			if !failed {
				t.Fatal("the export never failed")
			}
			tn.n("A").With(func(m Mutator) {
				if len(m.n.pins) != 0 || len(m.n.pendingExports) != 0 {
					t.Errorf("pins %v, pending exports %d", m.n.pins, len(m.n.pendingExports))
				}
			})
			for r := 0; r < 60 && !reflect.DeepEqual(measure(), before); r++ {
				round()
			}
			if after := measure(); !reflect.DeepEqual(after, before) {
				t.Fatalf("tables did not return to their pre-call sizes:\n got %v\nwant %v", after, before)
			}
		})
	}
}

func TestTickRunsDaemons(t *testing.T) {
	tn := newTestNet(t, Config{LGCEvery: 2, SnapshotEvery: 3, DetectEvery: 6}, "A")
	a := tn.n("A")
	for i := 0; i < 6; i++ {
		a.Tick()
	}
	if a.Clock() != 6 {
		t.Fatalf("clock = %d", a.Clock())
	}
	met := a.Metrics()
	if got := met.LGCRuns.Value(); got != 3 {
		t.Errorf("LGCRuns = %d, want 3", got)
	}
	if got := met.Summarizations.Value(); got != 2 {
		t.Errorf("Summarizations = %d, want 2", got)
	}
	if a.Summary() == nil {
		t.Error("no summary after ticks")
	}
}

func TestMutatorStoreRequiresHeldRef(t *testing.T) {
	tn := newTestNet(t, Config{}, "A")
	a := tn.n("A")
	obj := alloc(a)
	a.With(func(m Mutator) {
		if err := m.Store(obj, ids.GlobalRef{Node: "B", Obj: 7}); err == nil {
			t.Error("storing unheld remote ref accepted")
		}
	})
}

func TestMutatorLocalOps(t *testing.T) {
	tn := newTestNet(t, Config{}, "A")
	a := tn.n("A")
	a.With(func(m Mutator) {
		x := m.Alloc([]byte("hi"))
		y := m.Alloc(nil)
		if err := m.Link(x, y); err != nil {
			t.Fatal(err)
		}
		if got := m.Refs(x); len(got) != 1 || got[0] != m.GlobalRef(y) {
			t.Fatalf("refs = %v", got)
		}
		if string(m.Payload(x)) != "hi" {
			t.Fatalf("payload = %q", m.Payload(x))
		}
		if err := m.SetPayload(x, []byte("bye")); err != nil {
			t.Fatal(err)
		}
		if err := m.SetPayload(999, nil); err == nil {
			t.Fatal("SetPayload on missing object accepted")
		}
		if m.Payload(999) != nil {
			t.Fatal("payload of missing object")
		}
		// Store of a local ref via GlobalRef form.
		if err := m.Store(y, m.GlobalRef(x)); err != nil {
			t.Fatal(err)
		}
		if err := m.Drop(y, m.GlobalRef(x)); err != nil {
			t.Fatal(err)
		}
		if err := m.Unlink(x, y); err != nil {
			t.Fatal(err)
		}
		m.Unroot(x) // no-op, must not panic
	})
	if a.ID() != "A" {
		t.Fatal("ID mismatch")
	}
}
