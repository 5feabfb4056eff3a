package node

import (
	"testing"

	"dgc/internal/ids"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// TestICRingResidue pins what one faulty invocation leaves of a 2-node
// garbage ring (PROPERTIES.md, Known holes: invocation counters do not
// resync). The caller's stub counter and the owner's scion counter move on
// different messages, so a lost request, a lost reply or a duplicated
// request leaves the two ends of A->B unequal for good: every detection
// through it aborts, and the ring is never reclaimed. A duplicated reply
// is discarded as an unknown call and a clean call keeps the counters
// equal, so both are collected. The residue is asserted exactly, so a fix
// (ROADMAP item 1(iii)) flips the three leaking rows to zero here.
func TestICRingResidue(t *testing.T) {
	for _, row := range []struct {
		name   string
		faults transport.Faults
		leaks  bool
	}{
		{"no-fault", transport.Faults{}, false},
		{"lost-request", transport.Faults{LossRate: 1, Affects: []wire.Kind{wire.KindInvokeRequest}}, true},
		{"lost-reply", transport.Faults{LossRate: 1, Affects: []wire.Kind{wire.KindInvokeReply}}, true},
		{"dup-request", transport.Faults{DupRate: 1, Affects: []wire.Kind{wire.KindInvokeRequest}}, true},
		{"dup-reply", transport.Faults{DupRate: 1, Affects: []wire.Kind{wire.KindInvokeReply}}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			names := []ids.NodeID{"A", "B"}
			tn := newTestNet(t, Config{CallTimeoutTicks: 2}, names...)
			a, b := alloc(tn.n("A")), alloc(tn.n("B"))
			tn.grant("A", a, "B", b)
			tn.grant("B", b, "A", a)

			tn.net.SetFaults(row.faults)
			if err := tn.n("A").Invoke(ids.GlobalRef{Node: "B", Obj: b}, "noop", nil, nil); err != nil {
				t.Fatal(err)
			}
			tn.settle()
			tn.net.SetFaults(transport.Faults{})
			for tick := 0; tick < 4; tick++ {
				for _, id := range names {
					tn.n(id).Tick()
				}
				tn.settle()
			}

			collectRounds(t, tn, names, 60)
			want := 0
			if row.leaks {
				want = 1
			}
			for _, id := range names {
				n := tn.n(id)
				if n.NumObjects() != want || n.NumScions() != want || n.NumStubs() != want {
					t.Errorf("%s holds %d objects, %d scions, %d stubs; pinned at %d each",
						id, n.NumObjects(), n.NumScions(), n.NumStubs(), want)
				}
			}
		})
	}
}

// TestReGrantPostponesCandidacy: a second grant of an existing scion at tick
// T is activity on it, so the scion stays out of RunDetection until
// T+CandidateMinAge. The re-grant changes no counter; it reaches candidacy
// through the next summary's copy of the scion record.
func TestReGrantPostponesCandidacy(t *testing.T) {
	const minAge, regrant = 5, 8
	tn := newTestNet(t, Config{CandidateMinAge: minAge}, "A", "B")
	a, b := alloc(tn.n("A")), alloc(tn.n("B"))
	tn.grant("A", a, "B", b)
	tn.grant("B", b, "A", a)
	owner := tn.n("B")
	for owner.Clock() < regrant {
		owner.Tick()
	}
	if err := owner.Summarize(); err != nil {
		t.Fatal(err)
	}
	if err := owner.EnsureScionFor("A", b); err != nil {
		t.Fatal(err)
	}
	for {
		if err := owner.Summarize(); err != nil {
			t.Fatal(err)
		}
		now, want := owner.Clock(), 0
		if now >= regrant+minAge {
			want = 1
		}
		if got := owner.RunDetection(); got != want {
			t.Fatalf("tick %d: %d detections started, want %d", now, got, want)
		}
		if want == 1 {
			return
		}
		owner.Tick()
	}
}
