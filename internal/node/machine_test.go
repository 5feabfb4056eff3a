package node

import (
	"reflect"
	"testing"
	"time"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// The Machine is driven here with no transport and no driver at all: every
// input mutates state and accumulates outbound messages as effects, which
// the test inspects directly.

func TestMachineAccumulatesSendEffects(t *testing.T) {
	m := NewMachine("A", Config{})
	var obj ids.ObjID
	m.With(func(mut Mutator) {
		obj = mut.Alloc(nil)
		if err := mut.Root(obj); err != nil {
			t.Fatal(err)
		}
	})
	if err := m.HoldRemote(obj, ids.GlobalRef{Node: "B", Obj: 1}); err != nil {
		t.Fatal(err)
	}
	if outs := m.TakeEffects(); len(outs) != 0 {
		t.Fatalf("pure mutation produced %d sends", len(outs))
	}

	// A local collection must emit the reference-listing stub set to B.
	m.RunLGC()
	outs := m.TakeEffects()
	if len(outs) == 0 {
		t.Fatal("RunLGC produced no effects despite a remote reference")
	}
	found := false
	for _, o := range outs {
		if o.To == "B" {
			if _, ok := o.Msg.(*wire.NewSetStubs); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no NewSetStubs to B in effects: %v", outs)
	}
	// TakeEffects transfers ownership: the buffer starts fresh.
	if rest := m.TakeEffects(); len(rest) != 0 {
		t.Fatalf("second TakeEffects returned %d messages", len(rest))
	}
}

func TestMachineHandleMessageEffects(t *testing.T) {
	m := NewMachine("B", Config{})
	var obj ids.ObjID
	m.With(func(mut Mutator) { obj = mut.Alloc(nil) })
	m.TakeEffects()

	m.HandleMessage("A", &wire.CreateScion{ExportID: 7, Holder: "A", Objs: []ids.ObjID{obj}})
	outs := m.TakeEffects()
	if len(outs) != 1 || outs[0].To != "A" {
		t.Fatalf("effects = %v, want one ack to A", outs)
	}
	ack, ok := outs[0].Msg.(*wire.CreateScionAck)
	if !ok || !reflect.DeepEqual(ack.Acks, []wire.ExportAck{{ExportID: 7}}) {
		t.Fatalf("ack = %+v", outs[0].Msg)
	}
	if m.NumScions() != 1 {
		t.Fatalf("scions = %d", m.NumScions())
	}

	// A kind the machine has no handler for — wire.Credit, still decodable
	// though nothing sends it — is ignored: no effect, no state change.
	m.HandleMessage("A", &wire.Credit{Consumed: 3})
	if outs := m.TakeEffects(); len(outs) != 0 || m.NumScions() != 1 {
		t.Fatalf("a Credit produced %d effects and left %d scions", len(outs), m.NumScions())
	}
}

// TestOwnerAcksOncePerExporterPerFlush: an owner answers every CreateScion it
// handled for one exporter since the last flush in one CreateScionAck, in
// handling order. A request repeated within the window keeps its first
// entry, so the ack still decodes: a repeated export id would reject the
// whole TCP frame it travels in.
func TestOwnerAcksOncePerExporterPerFlush(t *testing.T) {
	m := NewMachine("C", Config{})
	var x, y ids.ObjID
	m.With(func(mut Mutator) { x, y = mut.Alloc(nil), mut.Alloc(nil) })
	m.TakeEffects()
	for _, req := range []struct {
		from ids.NodeID
		msg  *wire.CreateScion
	}{
		{"A", &wire.CreateScion{ExportID: 3, Holder: "A", Objs: []ids.ObjID{x}}},
		{"D", &wire.CreateScion{ExportID: 8, Holder: "D", Objs: []ids.ObjID{y}}},
		{"A", &wire.CreateScion{ExportID: 4, Holder: "B", Objs: []ids.ObjID{x, y, x}}},
		{"A", &wire.CreateScion{ExportID: 3, Holder: "A", Objs: []ids.ObjID{x}}},
		{"A", &wire.CreateScion{ExportID: 5, Holder: "A", Objs: []ids.ObjID{99}}},
	} {
		m.HandleMessage(req.from, req.msg)
	}
	outs := m.TakeEffects()
	want := []transport.Envelope{
		{To: "A", Msg: &wire.CreateScionAck{Acks: []wire.ExportAck{
			{ExportID: 3}, {ExportID: 4}, {ExportID: 5, Err: "no such object"},
		}}},
		{To: "D", Msg: &wire.CreateScionAck{Acks: []wire.ExportAck{{ExportID: 8}}}},
	}
	if !reflect.DeepEqual(outs, want) {
		t.Fatalf("effects = %v, want %v", outs, want)
	}
	for _, o := range outs {
		if _, err := wire.Decode(wire.Encode(o.Msg)); err != nil {
			t.Errorf("ack to %s: %v", o.To, err)
		}
	}
	// Export 4 copied A's reference to x twice (and to y, which A does not
	// hold): the scion counts both copies.
	if ic, ok := m.table.ScionIC("A", x); !ok || ic != 2 {
		t.Errorf("scion A -> x: IC %d, present %v, want IC 2", ic, ok)
	}

	// The next flush starts a new ack.
	m.HandleMessage("A", &wire.CreateScion{ExportID: 6, Holder: "A", Objs: []ids.ObjID{y}})
	want = []transport.Envelope{{To: "A", Msg: &wire.CreateScionAck{Acks: []wire.ExportAck{{ExportID: 6}}}}}
	if outs := m.TakeEffects(); !reflect.DeepEqual(outs, want) {
		t.Fatalf("next flush = %v, want %v", outs, want)
	}
}

// TestDuplicatedAckDoesNotCompleteTwoOwnerExport: an invocation exporting
// references owned by C and D leaves only once both owners have answered.
// A duplicated ack from C must not stand in for D's, or the callee would get
// a stub to D's object before its scion exists (PROPERTIES.md A1).
func TestDuplicatedAckDoesNotCompleteTwoOwnerExport(t *testing.T) {
	m := NewMachine("A", Config{})
	var holder ids.ObjID
	m.With(func(mut Mutator) {
		holder = mut.Alloc(nil)
		if err := mut.Root(holder); err != nil {
			t.Fatal(err)
		}
	})
	b := ids.GlobalRef{Node: "B", Obj: 1}
	c := ids.GlobalRef{Node: "C", Obj: 1}
	d := ids.GlobalRef{Node: "D", Obj: 1}
	for _, r := range []ids.GlobalRef{b, c, d} {
		if err := m.HoldRemote(holder, r); err != nil {
			t.Fatal(err)
		}
	}
	m.TakeEffects()
	if err := m.Invoke(b, "store", []ids.GlobalRef{c, d}, nil); err != nil {
		t.Fatal(err)
	}
	exports := make(map[ids.NodeID]uint64)
	for _, o := range m.TakeEffects() {
		if cs, ok := o.Msg.(*wire.CreateScion); ok {
			exports[o.To] = cs.ExportID
		}
	}
	if len(exports) != 2 {
		t.Fatalf("CreateScions went to %v, want C and D", exports)
	}
	invoked := func() bool {
		for _, o := range m.TakeEffects() {
			if _, ok := o.Msg.(*wire.InvokeRequest); ok && o.To == "B" {
				return true
			}
		}
		return false
	}
	ackFrom := func(owner ids.NodeID) *wire.CreateScionAck {
		return &wire.CreateScionAck{Acks: []wire.ExportAck{{ExportID: exports[owner]}}}
	}
	for i := 0; i < 2; i++ {
		m.HandleMessage("C", ackFrom("C"))
		if invoked() {
			t.Fatal("InvokeRequest to B sent before D acknowledged its scion")
		}
	}
	m.HandleMessage("D", ackFrom("D"))
	if !invoked() {
		t.Fatal("no InvokeRequest to B once C and D acknowledged")
	}
}

// TestMessageSpeaksOnlyForItsTransportSender: no message names its sender,
// so every handler acts for the node the transport delivered it from. Owner
// A holds scions from B and from C on the same objects; each message from
// one of them touches that one's references and exports only.
func TestMessageSpeaksOnlyForItsTransportSender(t *testing.T) {
	m := NewMachine("A", membCfg())
	var x, y ids.ObjID
	m.With(func(mut Mutator) { x, y = mut.Alloc(nil), mut.Alloc(nil) })
	for _, holder := range []ids.NodeID{"B", "C"} {
		for _, obj := range []ids.ObjID{x, y} {
			if err := m.EnsureScionFor(holder, obj); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.TakeEffects()
	scionsOf := func(holder ids.NodeID) (n int) {
		for _, sc := range m.table.Scions() {
			if sc.Src == holder {
				n++
			}
		}
		return n
	}

	// A drain handoff from B takes B's scions into custody, not C's.
	m.HandleMessage("B", &wire.LeaseHandoff{Objs: []ids.ObjID{x, y}})
	if got := m.table.ReleaseCustodial("C"); len(got) != 0 {
		t.Fatalf("handoff from B pinned C's scions %v", got)
	}
	if got := m.table.ReleaseCustodial("B"); len(got) != 2 {
		t.Fatalf("handoff from B pinned %v of B's scions, want both", got)
	}
	for _, obj := range []ids.ObjID{x, y} {
		if err := m.EnsureScionFor("B", obj); err != nil { // put back what the release deleted
			t.Fatal(err)
		}
	}

	// An empty stub set from B deletes B's scions and leaves C's.
	m.HandleMessage("B", &wire.NewSetStubs{Seq: 1})
	if b, c := scionsOf("B"), scionsOf("C"); b != 0 || c != 2 {
		t.Fatalf("after B's empty stub set: B holds %d scions, C %d; want 0 and 2", b, c)
	}

	// An ack from C resolves the exports that wait on C and no other owner's.
	var holder ids.ObjID
	m.With(func(mut Mutator) {
		holder = mut.Alloc(nil)
		if err := mut.Root(holder); err != nil {
			t.Fatal(err)
		}
	})
	c := ids.GlobalRef{Node: "C", Obj: 1}
	d := ids.GlobalRef{Node: "D", Obj: 1}
	for _, r := range []ids.GlobalRef{c, d} {
		if err := m.HoldRemote(holder, r); err != nil {
			t.Fatal(err)
		}
	}
	acquired := map[ids.NodeID]bool{}
	for _, r := range []ids.GlobalRef{{Node: "C", Obj: 2}, {Node: "D", Obj: 2}} {
		if err := m.AcquireRemote(r, func(_ Mutator, ok bool) { acquired[r.Node] = ok }); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Invoke(c, "store", []ids.GlobalRef{d}, nil); err != nil { // waits on D only
		t.Fatal(err)
	}
	ack := &wire.CreateScionAck{}
	for _, o := range m.TakeEffects() {
		if cs, ok := o.Msg.(*wire.CreateScion); ok {
			ack.Acks = append(ack.Acks, wire.ExportAck{ExportID: cs.ExportID})
		}
	}
	if len(ack.Acks) != 3 {
		t.Fatalf("%d exports pending, want 3", len(ack.Acks))
	}
	m.HandleMessage("C", ack)
	if !acquired["C"] || len(acquired) != 1 {
		t.Fatalf("an ack from C completed acquisitions %v, want C's only", acquired)
	}
	if n := len(m.pendingExports); n != 2 {
		t.Fatalf("%d exports still pending after C's ack, want D's 2", n)
	}
	for _, o := range m.TakeEffects() {
		if _, ok := o.Msg.(*wire.InvokeRequest); ok {
			t.Fatal("an ack from C released an invocation waiting on D")
		}
	}
}

// A Method handler, ReplyFunc or With body runs inside the machine, and the
// Mutator it is handed is its only way back in: calling a public Node method
// from there deadlocks, as re-locking a sync.Mutex does, and nothing checks
// for it. These are the sanctioned paths, on both schedulers: each case
// reaches a remote method through a callback's Mutator and reports whether
// that call was answered.
func TestCallbacksUseTheirMutator(t *testing.T) {
	schedulers := map[string]func(t *testing.T, id ids.NodeID, ep transport.Endpoint) *Node{
		"stepped": func(_ *testing.T, id ids.NodeID, ep transport.Endpoint) *Node {
			return New(id, ep, Config{})
		},
		"started": func(t *testing.T, id ids.NodeID, ep transport.Endpoint) *Node {
			n := NewLiveRuntime(id, ep, Config{}, RuntimeConfig{Tick: time.Hour})
			t.Cleanup(func() { n.Close() })
			return n
		},
	}
	// A holds a reference to toB on B, and B one to toC on C.
	cases := []struct {
		name string
		run  func(t *testing.T, a, b *Node, toB, toC ids.GlobalRef) (answered *bool)
	}{
		{"With body", func(t *testing.T, a, b *Node, toB, toC ids.GlobalRef) *bool {
			got := false
			err := a.With(func(m Mutator) {
				if err := m.Root(m.Alloc(nil)); err != nil {
					t.Error(err)
				}
				if err := m.Invoke(toB, "noop", nil, func(_ Mutator, r Reply) { got = r.OK }); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return &got
		}},
		{"ReplyFunc chains Invoke", func(t *testing.T, a, b *Node, toB, toC ids.GlobalRef) *bool {
			got := false
			err := a.Invoke(toB, "noop", nil, func(m Mutator, r Reply) {
				if !r.OK {
					t.Errorf("first call failed: %s", r.Err)
				}
				if err := m.Invoke(toB, "noop", nil, func(_ Mutator, r2 Reply) { got = r2.OK }); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return &got
		}},
		{"Method invokes onward", func(t *testing.T, a, b *Node, toB, toC ids.GlobalRef) *bool {
			got := false
			b.RegisterMethod("relay", func(m Mutator, _ ids.ObjID, _ []ids.GlobalRef) []ids.GlobalRef {
				if err := m.Invoke(toC, "noop", nil, func(_ Mutator, r Reply) { got = r.OK }); err != nil {
					t.Error(err)
				}
				return nil
			})
			if err := a.Invoke(toB, "relay", nil, nil); err != nil {
				t.Fatal(err)
			}
			return &got
		}},
	}
	for sched, mk := range schedulers {
		for _, tc := range cases {
			t.Run(sched+"/"+tc.name, func(t *testing.T) {
				tn := newTestNetOf(t, mk, "A", "B", "C")
				a, b := tn.n("A"), tn.n("B")
				onA, onB, onC := allocRooted(t, a), allocRooted(t, b), allocRooted(t, tn.n("C"))
				tn.grant("A", onA, "B", onB)
				tn.grant("B", onB, "C", onC)
				answered := tc.run(t, a, b, ids.GlobalRef{Node: "B", Obj: onB}, ids.GlobalRef{Node: "C", Obj: onC})
				tn.settle()
				if !*answered {
					t.Fatal("the call made through the callback's Mutator was not answered")
				}
			})
		}
	}
}

// enter re-raises a panic from the input it ran at the caller and leaves the
// node serving: a started node's loop recovers it and keeps consuming, a
// stepped node's mutex is released as it unwinds.
func TestCallbackPanicReachesCaller(t *testing.T) {
	for _, sched := range []string{"stepped", "started"} {
		t.Run(sched, func(t *testing.T) {
			var n *Node
			if sched == "started" {
				n = NewLiveRuntime("A", nil, Config{}, RuntimeConfig{Tick: time.Hour})
				defer n.Close()
			} else {
				n = New("A", nil, Config{})
			}
			type boom struct{ code int }
			var got any
			func() {
				defer func() { got = recover() }()
				_ = n.With(func(m Mutator) {
					m.Alloc(nil)
					panic(boom{7})
				})
			}()
			if got != (boom{7}) {
				t.Fatalf("recovered %#v at the caller, want boom{7}", got)
			}
			objs := make(chan int, 1)
			go func() { objs <- n.NumObjects() }()
			select {
			case got := <-objs:
				// The allocation before the panic stays: an input is not a
				// transaction.
				if got != 1 {
					t.Fatalf("objects after the panic = %d, want 1", got)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the node stopped serving after a callback panicked")
			}
		})
	}
}

// A detection that enters a node along two references can travel as two
// sections of one BatchCDM, and each can be cut for carrying no new
// information: the first against the accumulator it creates, the second after
// merging a larger derivation into it. The origin must still get one return
// section for the detection, since the decoder rejects a repeated (detection,
// along) pair. Every message the input sends has to survive the real codec.
func TestTwoCutsOfOneDetectionReturnOnce(t *testing.T) {
	m := NewMachine("B", Config{})
	stub := ids.GlobalRef{Node: "C", Obj: 9}
	var o1, o2 ids.ObjID
	m.With(func(mut Mutator) {
		o1 = mut.Alloc(nil)
		o2 = mut.Alloc(nil)
	})
	for _, o := range []ids.ObjID{o1, o2} {
		if err := m.EnsureScionFor("A", o); err != nil {
			t.Fatal(err)
		}
		if err := m.HoldRemote(o, stub); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Summarize(); err != nil {
		t.Fatal(err)
	}
	m.TakeEffects()
	sum := m.Summary()
	r1 := ids.RefID{Src: "A", Dst: ids.GlobalRef{Node: "B", Obj: o1}}
	r2 := ids.RefID{Src: "A", Dst: ids.GlobalRef{Node: "B", Obj: o2}}
	s := ids.RefID{Src: "B", Dst: stub}
	sc1, ok1 := sum.Scion(r1)
	sc2, ok2 := sum.Scion(r2)
	st, ok3 := sum.Stub(stub)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("summary lacks the scions or the stub")
	}

	// alg1 already holds everything B's expansion adds (the stub and the
	// scions leading to it), plus an unmatched source at A, so the branch
	// ends with no new information and no verdict. alg2 is alg1 grown by
	// one entry: it changes the accumulator and is cut again.
	alg1 := core.NewAlg()
	alg1.AddSource(r1, sc1.IC)
	alg1.AddSource(r2, sc2.IC)
	alg1.AddTarget(r1, sc1.IC)
	alg1.AddTarget(s, st.IC)
	alg1.AddSource(ids.RefID{Src: "C", Dst: ids.GlobalRef{Node: "A", Obj: 1}}, 0)
	alg2 := alg1.Clone()
	alg2.AddTarget(r2, sc2.IC)

	det := core.DetectionID{Origin: "A", Seq: 1}
	m.HandleMessage("A", wire.NewBatchCDM(2, false, []wire.BatchSection{
		wire.NewBatchSection(det, r1, alg1),
		wire.NewBatchSection(det, r2, alg2),
	}))

	returns := 0
	for _, out := range m.TakeEffects() {
		got, err := wire.Decode(wire.Encode(out.Msg))
		if err != nil {
			t.Fatalf("%T to %s does not decode: %v", out.Msg, out.To, err)
		}
		b, ok := got.(*wire.BatchCDM)
		if !ok || !b.Return {
			continue
		}
		returns++
		if out.To != "A" || len(b.Sections) != 1 || b.Sections[0].Det != det {
			t.Fatalf("return to %s carries %d sections, want one for %v to A", out.To, len(b.Sections), det)
		}
		// The surviving section is the later cut's view, which holds the
		// earlier one's: it adds to alg1 and nothing to alg2.
		if changed, conflict := b.Sections[0].MergeAlgInto(alg1.Clone()); !changed || conflict {
			t.Fatalf("returned view is the earlier cut's: changed=%v conflict=%v", changed, conflict)
		}
		if changed, conflict := b.Sections[0].MergeAlgInto(alg2.Clone()); changed || conflict {
			t.Fatalf("returned view is not the later cut's: changed=%v conflict=%v", changed, conflict)
		}
	}
	if returns != 1 {
		t.Fatalf("%d return messages, want 1", returns)
	}
}

// A parked section leaves before any accumulator reset, here the cdmAccCap
// one: after the reset a later delivery of the same detection builds a fresh,
// smaller view, and its derivation must not supersede the one parked from
// the view that died. The machine is fed like a started node's window, with
// no TakeEffects between the deliveries.
func TestParkedSectionSurvivesAccumulatorReset(t *testing.T) {
	m := NewMachine("B", Config{})
	stub := ids.GlobalRef{Node: "C", Obj: 9}
	var o ids.ObjID
	m.With(func(mut Mutator) { o = mut.Alloc(nil) })
	if err := m.EnsureScionFor("A", o); err != nil {
		t.Fatal(err)
	}
	if err := m.HoldRemote(o, stub); err != nil {
		t.Fatal(err)
	}
	if err := m.Summarize(); err != nil {
		t.Fatal(err)
	}
	m.TakeEffects()
	along := ids.RefID{Src: "A", Dst: ids.GlobalRef{Node: "B", Obj: o}}
	first := ids.RefID{Src: "C", Dst: ids.GlobalRef{Node: "A", Obj: 1}}
	later := ids.RefID{Src: "X", Dst: ids.GlobalRef{Node: "A", Obj: 7}}
	cdm := func(seq uint64, src ids.RefID) *wire.CDM {
		alg := core.NewAlg()
		alg.AddSource(src, 0)
		alg.AddTarget(along, 0)
		det := core.DetectionID{Origin: "A", Seq: seq}
		return wire.NewCDMFromAlg(det, along, alg, 1, core.TraceIDFor(det))
	}

	// det's accumulator and cdmAccCap-1 others fill the cache; the next
	// detection resets it, and det then arrives again from elsewhere.
	det := core.DetectionID{Origin: "A", Seq: 1}
	m.HandleMessage("A", cdm(det.Seq, first))
	for seq := uint64(2); seq <= cdmAccCap+1; seq++ {
		m.HandleMessage("A", cdm(seq, first))
	}
	m.HandleMessage("A", cdm(det.Seq, later))

	var views []core.Alg
	for _, out := range m.TakeEffects() {
		got, err := wire.Decode(wire.Encode(out.Msg))
		if err != nil {
			t.Fatalf("%T to %s does not decode: %v", out.Msg, out.To, err)
		}
		switch msg := got.(type) {
		case *wire.CDM:
			if msg.Det == det {
				v := core.NewAlg()
				msg.MergeAlgInto(v)
				views = append(views, v)
			}
		case *wire.BatchCDM:
			for i := range msg.Sections {
				if s := &msg.Sections[i]; s.Det == det {
					v := core.NewAlg()
					s.MergeAlgInto(v)
					views = append(views, v)
				}
			}
		}
	}
	if len(views) != 2 {
		t.Fatalf("det %v left in %d sections, want 2: the parked one and the later one", det, len(views))
	}
	if _, ok := views[0].Get(first); !ok {
		t.Fatal("the parked section was superseded by the post-reset derivation")
	}
	if _, ok := views[1].Get(later); !ok {
		t.Fatal("the post-reset derivation did not leave")
	}
	if _, ok := views[1].Get(first); ok {
		t.Fatal("the post-reset derivation carries the dead accumulator's view")
	}
}
