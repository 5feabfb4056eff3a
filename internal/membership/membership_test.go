package membership

import (
	"testing"

	"dgc/internal/ids"
)

func newT(self ids.NodeID, peers ...ids.NodeID) *Tracker {
	t := NewTracker(self, "addr-"+string(self), Config{})
	for _, p := range peers {
		t.SeedPeer(p, "addr-"+string(p), 0)
	}
	return t
}

func TestSelfAliveImmediatelyWhenAlone(t *testing.T) {
	tr := newT("P1")
	trs := tr.Tick(1)
	if len(trs) != 1 || trs[0].Member.Node != "P1" || trs[0].Member.State != Alive {
		t.Fatalf("Tick = %+v", trs)
	}
}

func TestSelfJoiningUntilFirstGossip(t *testing.T) {
	tr := newT("P1", "P2")
	if trs := tr.Tick(1); len(trs) != 0 {
		t.Fatalf("went alive before hearing anyone: %+v", trs)
	}
	tr.Observe("P2", 2)
	trs := tr.Tick(2)
	var selfAlive bool
	for _, x := range trs {
		if x.Member.Node == "P1" && x.Member.State == Alive {
			selfAlive = true
		}
	}
	if !selfAlive {
		t.Fatalf("self not alive after first exchange: %+v", trs)
	}
}

func TestObserveFlipsJoiningPeerAlive(t *testing.T) {
	tr := newT("P1", "P2")
	x := tr.Observe("P2", 3)
	if x == nil || x.Member.State != Alive || x.Prev != Joining {
		t.Fatalf("Observe = %+v", x)
	}
	if tr.State("P2") != Alive {
		t.Fatalf("state = %v", tr.State("P2"))
	}
}

func TestSilenceDrivesSuspectThenDead(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Observe("P2", 1)
	cfg := tr.Config()
	// Quiet until past the suspicion floor.
	deadline := 1 + cfg.SuspectAfter
	for now := uint64(2); now <= deadline; now++ {
		for _, x := range tr.Tick(now) {
			if x.Member.Node == "P2" {
				t.Fatalf("tick %d: early transition %+v", now, x)
			}
		}
	}
	trs := tr.Tick(deadline + 1)
	if got := tr.State("P2"); got != Suspect {
		t.Fatalf("state after silence = %v (%+v)", got, trs)
	}
	for now := deadline + 2; now <= deadline+1+cfg.DeadAfter; now++ {
		tr.Tick(now)
	}
	if got := tr.State("P2"); got != Suspect {
		t.Fatalf("dead before DeadAfter elapsed: %v", got)
	}
	tr.Tick(deadline + 2 + cfg.DeadAfter)
	if got := tr.State("P2"); got != Dead {
		t.Fatalf("state = %v, want dead", got)
	}
}

func TestAdaptiveThresholdScalesWithCadence(t *testing.T) {
	// A peer heard every 20 ticks must not be suspected at the 16-tick
	// floor: the threshold adapts to 4× the smoothed gap.
	tr := newT("P1", "P2")
	now := uint64(0)
	for i := 0; i < 5; i++ {
		now += 20
		tr.Observe("P2", now)
	}
	for n := now + 1; n <= now+40; n++ {
		tr.Tick(n)
	}
	if got := tr.State("P2"); got != Alive {
		t.Fatalf("slow-cadence peer suspected: %v", got)
	}
}

func TestObserveRecoversSuspect(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Observe("P2", 1)
	for now := uint64(2); now < 40; now++ {
		tr.Tick(now)
	}
	if tr.State("P2") != Suspect {
		t.Fatalf("setup: state = %v", tr.State("P2"))
	}
	x := tr.Observe("P2", 40)
	if x == nil || x.Member.State != Alive || x.Prev != Suspect {
		t.Fatalf("Observe = %+v", x)
	}
}

func TestDeadIsStickyAgainstTraffic(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Observe("P2", 1)
	for now := uint64(2); now < 100; now++ {
		tr.Tick(now)
	}
	if tr.State("P2") != Dead {
		t.Fatalf("setup: state = %v", tr.State("P2"))
	}
	if x := tr.Observe("P2", 100); x != nil {
		t.Fatalf("traffic revived a dead member: %+v", x)
	}
	if tr.State("P2") != Dead {
		t.Fatalf("state = %v", tr.State("P2"))
	}
}

func TestHigherIncarnationRevivesDead(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Observe("P2", 1)
	for now := uint64(2); now < 100; now++ {
		tr.Tick(now)
	}
	trs := tr.Merge([]Member{{Node: "P2", Incarnation: 1, State: Alive}}, 100)
	if len(trs) != 1 || trs[0].Member.State != Alive || trs[0].Prev != Dead {
		t.Fatalf("Merge = %+v", trs)
	}
	// The silence window restarted: no instant re-suspect.
	if got := tr.Tick(101); len(got) != 0 {
		t.Fatalf("re-suspected immediately: %+v", got)
	}
}

func TestMergePrecedenceAtEqualIncarnation(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Observe("P2", 1) // alive @ inc 0
	trs := tr.Merge([]Member{{Node: "P2", Incarnation: 0, State: Suspect}}, 2)
	if len(trs) != 1 || trs[0].Member.State != Suspect {
		t.Fatalf("suspect did not dominate alive at equal incarnation: %+v", trs)
	}
	// Alive at the same incarnation must NOT refute suspicion.
	if trs := tr.Merge([]Member{{Node: "P2", Incarnation: 0, State: Alive}}, 3); len(trs) != 0 {
		t.Fatalf("alive@same-inc overrode suspect: %+v", trs)
	}
	// Alive at a higher incarnation does.
	trs = tr.Merge([]Member{{Node: "P2", Incarnation: 1, State: Alive}}, 4)
	if len(trs) != 1 || trs[0].Member.State != Alive {
		t.Fatalf("alive@higher-inc did not refute: %+v", trs)
	}
}

func TestSelfRefutesSuspicion(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Observe("P2", 1)
	tr.Tick(1)
	v := tr.Version()
	trs := tr.Merge([]Member{{Node: "P1", Incarnation: 0, State: Suspect}}, 2)
	me := tr.Self()
	if me.State != Alive || me.Incarnation != 1 {
		t.Fatalf("self = %+v (transitions %+v)", me, trs)
	}
	if tr.Version() == v {
		t.Fatal("refutation did not bump the directory version")
	}
}

func TestMergeDiscoversNewMember(t *testing.T) {
	tr := newT("P1", "P2")
	trs := tr.Merge([]Member{{Node: "P3", Addr: "h3:1", Incarnation: 0, State: Alive}}, 5)
	if len(trs) != 1 || trs[0].Member.Node != "P3" || trs[0].Prev != 0 {
		t.Fatalf("Merge = %+v", trs)
	}
	ups := tr.TakeAddrUpdates()
	if len(ups) != 2 || ups[1].Node != "P3" || ups[1].Addr != "h3:1" {
		t.Fatalf("addr updates = %+v", ups)
	}
	if len(tr.TakeAddrUpdates()) != 0 {
		t.Fatal("addr updates not drained")
	}
}

func TestDrainLifecycle(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Observe("P2", 1)
	tr.Tick(1)
	x := tr.BeginDrain(10)
	if x == nil || x.Member.State != Draining || x.Member.Incarnation != 1 {
		t.Fatalf("BeginDrain = %+v", x)
	}
	if !tr.Draining() {
		t.Fatal("Draining() = false")
	}
	linger := tr.Config().DrainLinger
	selfTrs := func(trs []Transition) []Transition {
		var out []Transition
		for _, x := range trs {
			if x.Member.Node == "P1" {
				out = append(out, x)
			}
		}
		return out
	}
	if trs := selfTrs(tr.Tick(10 + linger - 1)); len(trs) != 0 {
		t.Fatalf("departed before linger: %+v", trs)
	}
	trs := selfTrs(tr.Tick(10 + linger))
	if len(trs) != 1 || trs[0].Member.State != Dead || trs[0].Prev != Draining {
		t.Fatalf("Tick = %+v", trs)
	}
	// Departure is self-managed: gossip cannot resurrect us.
	if trs := tr.Merge([]Member{{Node: "P1", Incarnation: 99, State: Alive}}, 30); len(trs) != 0 {
		t.Fatalf("gossip resurrected a departed self: %+v", trs)
	}
}

func TestHasNewsFor(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Observe("P2", 1) // P2 alive@0, P1 joining@0
	snap := tr.Snapshot()
	if tr.HasNewsFor(snap) {
		t.Fatal("news against own snapshot")
	}
	stale := []Member{{Node: "P1", State: Joining}, {Node: "P2", State: Joining}}
	if !tr.HasNewsFor(stale) {
		t.Fatal("no news against stale records")
	}
	if !tr.HasNewsFor([]Member{{Node: "P1", State: Joining}}) {
		t.Fatal("no news when peer lacks a member")
	}
}

func TestNextGossipPeerProbesDeadEveryFourth(t *testing.T) {
	tr := newT("P1", "P2", "P3")
	tr.Observe("P2", 1)
	// Kill P3 via merge.
	tr.Merge([]Member{{Node: "P3", Incarnation: 0, State: Dead}}, 1)
	seen := map[ids.NodeID]int{}
	for i := 0; i < 8; i++ {
		p, ok := tr.NextGossipPeer()
		if !ok {
			t.Fatal("no gossip peer")
		}
		seen[p]++
	}
	// Live rotation sticks to P2, but every fourth push probes the dead P3 so
	// a wrongly-declared peer always has a refutation channel.
	if seen["P2"] != 6 || seen["P3"] != 2 {
		t.Fatalf("rotation = %v, want 6×P2 and 2×P3", seen)
	}
}

func TestNextGossipPeerFallsBackToDeadWhenNoLivePeer(t *testing.T) {
	tr := newT("P1", "P2")
	tr.Merge([]Member{{Node: "P2", Incarnation: 0, State: Dead}}, 1)
	p, ok := tr.NextGossipPeer()
	if !ok || p != "P2" {
		t.Fatalf("NextGossipPeer = %v %v, want the dead P2 as fallback", p, ok)
	}
}

func TestMutualDeadHealsThroughDeadProbe(t *testing.T) {
	p1 := newT("P1", "P2")
	p2 := newT("P2", "P1")
	p1.Observe("P2", 1)
	p2.Observe("P1", 1)
	// A long bidirectional partition: each side declares the other dead.
	p1.Merge([]Member{{Node: "P2", Incarnation: 0, State: Dead}}, 2)
	p2.Merge([]Member{{Node: "P1", Incarnation: 0, State: Dead}}, 2)
	if !p1.IsDead("P2") || !p2.IsDead("P1") {
		t.Fatal("setup: mutual dead declaration did not take")
	}
	// Partition heals: run push/ack gossip rounds. The dead-peer probe is the
	// only traffic either side will aim at the other, and it must be enough —
	// the pushed record claiming the receiver dead triggers its incarnation
	// bump, and the ack carries the refutation back.
	trackers := map[ids.NodeID]*Tracker{"P1": p1, "P2": p2}
	healed := func() bool { return p1.State("P2") == Alive && p2.State("P1") == Alive }
	now := uint64(3)
	for round := 0; round < 8 && !healed(); round++ {
		for id, tr := range trackers {
			peer, ok := tr.NextGossipPeer()
			if !ok {
				t.Fatal("no gossip peer")
			}
			dst := trackers[peer]
			push := tr.Snapshot()
			dst.Merge(push, now)
			dst.Observe(id, now)
			if dst.HasNewsFor(push) {
				tr.Merge(dst.Snapshot(), now)
				tr.Observe(peer, now)
			}
		}
		now++
	}
	if !healed() {
		t.Fatalf("mutual dead never healed: P1 sees P2 %v, P2 sees P1 %v",
			p1.State("P2"), p2.State("P1"))
	}
}

func TestSnapshotCanonicalOrderAndCounts(t *testing.T) {
	tr := newT("P3", "P1", "P2")
	tr.Observe("P1", 1)
	snap := tr.Snapshot()
	if len(snap) != 3 || snap[0].Node != "P1" || snap[1].Node != "P2" || snap[2].Node != "P3" {
		t.Fatalf("Snapshot = %+v", snap)
	}
	for _, m := range snap {
		if m.State == Suspect || m.State == Dead {
			t.Fatalf("%s is %v, want every member joining or alive", m.Node, m.State)
		}
	}
}
