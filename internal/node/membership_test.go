package node

import (
	"testing"

	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/wire"
)

// Machine-level membership tests: the gossip directory, failure detector and
// holder leases driven directly through machine inputs and effects, with no
// transport at all (the same style as machine_test.go).

func membCfg() Config {
	return Config{Membership: &membership.Config{
		GossipEvery:  4,
		SuspectAfter: 4,
		DeadAfter:    4,
		LeaseTicks:   10,
		DrainLinger:  2,
	}}
}

// exchange drives one round: both machines advance their clocks, then every
// accumulated envelope is delivered to its destination machine.
func exchange(ms map[ids.NodeID]*Machine) {
	for _, m := range ms {
		m.Tick()
	}
	for id, m := range ms {
		for _, env := range m.TakeEffects() {
			if dst, ok := ms[env.To]; ok && env.To != id {
				dst.HandleMessage(id, env.Msg)
			}
		}
	}
}

func TestMachineMembershipDeadPeerReclaimsScions(t *testing.T) {
	m := NewMachine("A", membCfg())
	var obj ids.ObjID
	m.With(func(mut Mutator) { obj = mut.Alloc(nil) })
	if err := m.AddMember("B", ""); err != nil {
		t.Fatal(err)
	}
	if got := m.MemberState("B"); got != membership.Joining {
		t.Fatalf("seeded peer state = %s, want joining", got)
	}

	// Traffic from B: scion created, directory flips B to alive, lease starts.
	m.HandleMessage("B", &wire.CreateScion{ExportID: 1, From: "B", Holder: "B", Obj: obj})
	m.TakeEffects()
	if got := m.MemberState("B"); got != membership.Alive {
		t.Fatalf("after traffic, B = %s, want alive", got)
	}
	if m.NumScions() != 1 {
		t.Fatalf("scions = %d", m.NumScions())
	}

	// Silence: B must pass through suspect on its way to dead, and the scion
	// must survive until BOTH the directory says dead AND the lease lapsed.
	sawSuspect := false
	for i := 0; i < 40 && m.MemberState("B") != membership.Dead; i++ {
		m.Tick()
		m.TakeEffects()
		if m.MemberState("B") == membership.Suspect {
			sawSuspect = true
			if m.NumScions() != 1 {
				t.Fatal("scion reclaimed while B merely suspect")
			}
		}
	}
	if !sawSuspect {
		t.Fatal("B never passed through suspect")
	}
	if m.MemberState("B") != membership.Dead {
		t.Fatal("B never declared dead under silence")
	}
	for i := 0; i < 20 && m.NumScions() > 0; i++ {
		m.Tick()
		m.TakeEffects()
	}
	if m.NumScions() != 0 {
		t.Fatal("dead holder's scion never reclaimed after lease expiry")
	}
	// With the scion gone the object is unreferenced: the local collector
	// sweeps it.
	if res := m.RunLGC(); res.Swept != 1 {
		t.Fatalf("swept = %d after reclamation, want 1", res.Swept)
	}
}

func TestMachineMembershipGossipConverges(t *testing.T) {
	ms := map[ids.NodeID]*Machine{
		"A": NewMachine("A", membCfg()),
		"B": NewMachine("B", membCfg()),
	}
	// Asymmetric seeding: only A knows about B. B must discover A purely
	// from the gossip A pushes at it.
	if err := ms["A"].AddMember("B", "b:1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		exchange(ms)
	}
	if got := ms["A"].MemberState("B"); got != membership.Alive {
		t.Fatalf("A's view of B = %s, want alive", got)
	}
	if got := ms["B"].MemberState("A"); got != membership.Alive {
		t.Fatalf("B's view of A = %s, want alive (discovered via gossip)", got)
	}
	if got := ms["B"].MemberState("B"); got != membership.Alive {
		t.Fatalf("B's self state = %s, want alive", got)
	}
	// The gossiped record carried B's address to... B itself; more usefully,
	// B's directory must have recorded A's discovery with an address-free
	// record (A never set one) without inventing state.
	if n := len(ms["B"].Members()); n != 2 {
		t.Fatalf("B's directory has %d records, want 2", n)
	}
}

func TestMachineDrainHandsOffAndRetires(t *testing.T) {
	ms := map[ids.NodeID]*Machine{
		"A": NewMachine("A", membCfg()),
		"B": NewMachine("B", membCfg()),
	}
	a, b := ms["A"], ms["B"]
	if err := a.AddMember("B", ""); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMember("A", ""); err != nil {
		t.Fatal(err)
	}

	// B owns an object; A holds a reference to it (stub at A, scion at B).
	var target ids.ObjID
	b.With(func(mut Mutator) { target = mut.Alloc(nil) })
	b.HandleMessage("A", &wire.CreateScion{ExportID: 1, From: "A", Holder: "A", Obj: target})
	b.TakeEffects()
	var holder ids.ObjID
	a.With(func(mut Mutator) {
		holder = mut.Alloc(nil)
		if err := mut.Root(holder); err != nil {
			t.Fatal(err)
		}
	})
	if err := a.HoldRemote(holder, ids.GlobalRef{Node: "B", Obj: target}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		exchange(ms)
	}
	if b.NumScions() != 1 {
		t.Fatalf("B scions = %d before drain", b.NumScions())
	}

	// Drain A: the handoff must reach B before A retires, and a draining
	// node must refuse to launch detections.
	if err := a.BeginDrain(); err != nil {
		t.Fatal(err)
	}
	sawHandoff := false
	for _, env := range a.TakeEffects() {
		if ho, ok := env.Msg.(*wire.LeaseHandoff); ok && env.To == "B" {
			sawHandoff = true
			if len(ho.Objs) != 1 || ho.Objs[0] != target {
				t.Fatalf("handoff objs = %v, want [%d]", ho.Objs, target)
			}
			b.HandleMessage("A", env.Msg)
		} else if env.To == "B" {
			b.HandleMessage("A", env.Msg)
		}
	}
	if !sawHandoff {
		t.Fatal("BeginDrain sent no LeaseHandoff to the referent's owner")
	}
	if got := a.RunDetection(); got != 0 {
		t.Fatalf("draining node launched %d detections", got)
	}
	b.TakeEffects()
	if got := b.MemberState("A"); got != membership.Draining {
		t.Fatalf("B's view of A = %s, want draining (piggybacked on the handoff)", got)
	}

	// Linger out: A declares itself dead, gossip carries it, and B releases
	// the custodial scion so the former referent can be collected.
	for i := 0; i < 30 && b.NumScions() > 0; i++ {
		exchange(ms)
	}
	if got := b.MemberState("A"); got != membership.Dead {
		t.Fatalf("B's view of A = %s, want dead after drain linger", got)
	}
	if b.NumScions() != 0 {
		t.Fatal("custodial scion never released after the drained holder retired")
	}
	if res := b.RunLGC(); res.Swept != 1 {
		t.Fatalf("swept = %d after custodial release, want 1", res.Swept)
	}
}
