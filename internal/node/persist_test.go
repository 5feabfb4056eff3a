package node

import (
	"bytes"
	"testing"

	"dgc/internal/ids"
	"dgc/internal/refs"
	"dgc/internal/transport"
)

func TestSaveRestoreRoundTrip(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	x := alloc(a)
	a.With(func(m Mutator) {
		if err := m.Link(holder, x); err != nil {
			t.Fatal(err)
		}
	})
	target := alloc(b)
	tn.grant("A", holder, "B", target)
	// Some activity to give counters and sequence numbers non-zero values.
	ref := ids.GlobalRef{Node: "B", Obj: target}
	for i := 0; i < 3; i++ {
		if err := a.Invoke(ref, "noop", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	tn.settle()
	a.RunLGC()
	tn.settle()
	a.Tick()
	a.Tick()

	data, err := a.Save()
	if err != nil {
		t.Fatal(err)
	}

	// Restore onto a fresh endpoint (simulating a new process).
	net2 := transport.NewNetwork(2)
	a2, err := Restore(net2.Endpoint("A"), Config{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if a2.ID() != "A" {
		t.Fatalf("restored id = %s", a2.ID())
	}
	if a2.NumObjects() != a.NumObjects() {
		t.Fatalf("objects: %d vs %d", a2.NumObjects(), a.NumObjects())
	}
	if a2.NumStubs() != a.NumStubs() || a2.NumScions() != a.NumScions() {
		t.Fatalf("tables differ: stubs %d/%d scions %d/%d",
			a2.NumStubs(), a.NumStubs(), a2.NumScions(), a.NumScions())
	}
	if a2.Clock() != a.Clock() {
		t.Fatalf("clock: %d vs %d", a2.Clock(), a.Clock())
	}
	// Invocation counters survive.
	var icOld, icNew uint64
	a.With(func(m Mutator) { icOld, _ = m.n.table.StubIC(ref) })
	a2.With(func(m Mutator) { icNew, _ = m.n.table.StubIC(ref) })
	if icOld == 0 || icOld != icNew {
		t.Fatalf("stub IC: %d vs %d", icOld, icNew)
	}
	// Sequence numbers survive: the next stub set is newer than any sent
	// before the save.
	a2.With(func(m Mutator) {
		out, _ := m.n.table.SeqState()
		if len(out) == 0 || out[0].Seq == 0 {
			t.Errorf("outbound sequence state lost: %+v", out)
		}
	})
	// The restored heap is independent of the original.
	before := a.NumObjects()
	a2.With(func(m Mutator) { m.Alloc(nil) })
	if a.NumObjects() != before {
		t.Error("allocation in restored node affected original heap")
	}
	if a2.NumObjects() != before+1 {
		t.Error("allocation in restored node not visible there")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	net := transport.NewNetwork(1)
	cases := [][]byte{
		nil,
		[]byte("bogus"),
		[]byte(persistMagic), // truncated
	}
	for _, data := range cases {
		if _, err := Restore(net.Endpoint("X"), Config{}, data); err == nil {
			t.Errorf("Restore(%q) succeeded", data)
		}
	}
	// Truncations of a valid state must all fail.
	tn := newTestNet(t, Config{}, "A")
	allocRooted(t, tn.n("A"))
	data, err := tn.n("A").Save()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(data); cut += 3 {
		if _, err := Restore(net.Endpoint("X"), Config{}, data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation at -%d accepted", cut)
		}
	}
	// Trailing garbage must fail.
	if _, err := Restore(net.Endpoint("X"), Config{}, append(append([]byte{}, data...), 7)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestRestartedNodeStubSetsNotStale(t *testing.T) {
	// The sequence-number persistence requirement: after a restart, the
	// node's stub sets must still be accepted by peers (a reset to zero
	// would be discarded as stale, leaking the peer's scions forever).
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder := allocRooted(t, a)
	target := alloc(b)
	tn.grant("A", holder, "B", target)
	a.RunLGC() // seq 1 delivered
	tn.settle()

	data, err := a.Save()
	if err != nil {
		t.Fatal(err)
	}
	// "Restart": restore A on the same network (replacing the endpoint
	// handler).
	a2, err := Restore(tn.net.Endpoint("A"), Config{}, data)
	if err != nil {
		t.Fatal(err)
	}
	// A2 drops the reference and collects.
	a2.With(func(m Mutator) {
		if err := m.Drop(holder, ids.GlobalRef{Node: "B", Obj: target}); err != nil {
			t.Fatal(err)
		}
	})
	a2.RunLGC()
	tn.settle()
	if b.NumScions() != 0 {
		t.Fatal("post-restart stub set was discarded as stale; scion leaked")
	}
	b.RunLGC()
	if b.NumObjects() != 0 {
		t.Fatal("garbage not reclaimed after restart")
	}
}

// FuzzRestoreMachine hardens the state-file decoder, whose input an operator
// supplies (-state-file): it must never panic, and any state it accepts must
// save again and restore from that save to the same bytes.
func FuzzRestoreMachine(f *testing.F) {
	m := NewMachine("A", Config{})
	root := m.heap.Alloc([]byte("root")).ID
	leaf := m.heap.Alloc(nil).ID
	if err := m.heap.AddRoot(root); err != nil {
		f.Fatal(err)
	}
	if err := m.heap.AddLocalRef(root, leaf); err != nil {
		f.Fatal(err)
	}
	remote := ids.GlobalRef{Node: "B", Obj: 3}
	if err := m.heap.AddRemoteRef(leaf, remote); err != nil {
		f.Fatal(err)
	}
	m.table.RestoreStub(remote, 5)
	m.table.RestoreScion("B", leaf, 2)
	m.table.RestoreSeqState([]refs.SeqEntry{{Node: "B", Seq: 4}}, []refs.SeqEntry{{Node: "B", Seq: 6}})
	m.clock, m.snapVersion = 9, 3
	data, err := m.Save()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for cut := 1; cut < len(data); cut += 7 {
		f.Add(data[:cut])
	}
	for i := 0; i < len(data); i += 5 {
		flipped := append([]byte{}, data...)
		flipped[i] ^= 1 << (i % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := RestoreMachine(Config{}, data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		saved, err := m.Save()
		if err != nil {
			t.Fatalf("accepted state does not save: %v", err)
		}
		m2, err := RestoreMachine(Config{}, saved)
		if err != nil {
			t.Fatalf("saved state does not restore: %v", err)
		}
		again, err := m2.Save()
		if err != nil {
			t.Fatalf("restored state does not save: %v", err)
		}
		if !bytes.Equal(again, saved) {
			t.Fatalf("save not stable across a restore:\n first  %x\n second %x", saved, again)
		}
	})
}
