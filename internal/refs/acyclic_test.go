package refs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgc/internal/ids"
)

func TestGenerateTargetedGroupsByNode(t *testing.T) {
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	tb.EnsureStub(gref("P2", 3))
	tb.EnsureStub(gref("P3", 1))
	a := NewAcyclicDGC(tb)
	out := a.GenerateTargeted()
	if len(out) != 2 {
		t.Fatalf("messages = %d, want 2", len(out))
	}
	if out[0].To != "P2" || out[1].To != "P3" {
		t.Fatalf("destinations = %v, %v", out[0].To, out[1].To)
	}
	if len(out[0].Msg.Objs) != 2 || out[0].Msg.Objs[0] != 3 || out[0].Msg.Objs[1] != 6 {
		t.Fatalf("P2 objs = %v", out[0].Msg.Objs)
	}
	if out[0].Msg.Seq != 1 || out[0].Msg.From != "P1" {
		t.Fatalf("msg header = %+v", out[0].Msg)
	}
}

func TestGenerateTargetedRepeatsEmptySetsByDefault(t *testing.T) {
	// Default (EmptySetRepeats == 0): empty sets repeat forever so scion
	// reclamation survives message loss.
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	a := NewAcyclicDGC(tb)
	a.GenerateTargeted()
	tb.DeleteStub(gref("P2", 6))
	for round := 0; round < 5; round++ {
		out := a.GenerateTargeted()
		if len(out) != 1 || out[0].To != "P2" || len(out[0].Msg.Objs) != 0 {
			t.Fatalf("round %d: %+v, want a repeated empty set", round, out)
		}
	}
}

func TestGenerateTargetedSendsEmptySetOnceAfterLastStubGone(t *testing.T) {
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	a := NewAcyclicDGC(tb)
	a.EmptySetRepeats = 1
	if got := a.GenerateTargeted(); len(got) != 1 || len(got[0].Msg.Objs) != 1 {
		t.Fatalf("round 1 = %+v", got)
	}
	tb.DeleteStub(gref("P2", 6))
	// P2 must receive exactly one empty set so it can delete scions.
	out := a.GenerateTargeted()
	if len(out) != 1 || out[0].To != "P2" || len(out[0].Msg.Objs) != 0 || out[0].Msg.Seq != 2 {
		t.Fatalf("round 2 = %+v", out)
	}
	// Afterwards, no more messages to P2.
	if out := a.GenerateTargeted(); len(out) != 0 {
		t.Fatalf("round 3 = %+v, want none", out)
	}
	// A stub reappearing resumes messaging with a higher sequence number.
	tb.EnsureStub(gref("P2", 9))
	out = a.GenerateTargeted()
	if len(out) != 1 || out[0].Msg.Seq != 3 {
		t.Fatalf("round 4 = %+v", out)
	}
}

func TestNotePeerForcesEmptySetAfterSilentStubDeath(t *testing.T) {
	// A stub deleted before the FIRST generation round (e.g. by the first
	// local collection) must still produce an empty set for its peer.
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	a := NewAcyclicDGC(tb)
	a.NotePeers()
	tb.DeleteStub(gref("P2", 6)) // dies before any GenerateTargeted
	out := a.GenerateTargeted()
	if len(out) != 1 || out[0].To != "P2" || len(out[0].Msg.Objs) != 0 {
		t.Fatalf("generated = %+v, want one empty set for P2", out)
	}
}

func TestApplyStubSetDeletesUnlistedScions(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6)
	tb.EnsureScion("P1", 3)
	tb.EnsureScion("P5", 6) // different source: must survive
	a := NewAcyclicDGC(tb)

	deleted := a.ApplyStubSet(StubSetMsg{From: "P1", Seq: 1, Objs: []ids.ObjID{6}})
	if len(deleted) != 1 || deleted[0].Obj != 3 || deleted[0].Src != "P1" {
		t.Fatalf("deleted = %+v", deleted)
	}
	if tb.Scion("P1", 6) == nil || tb.Scion("P5", 6) == nil {
		t.Fatal("listed or foreign scions were deleted")
	}
}

func TestApplyStubSetIgnoresStaleAndDuplicate(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6)
	a := NewAcyclicDGC(tb)

	if d := a.ApplyStubSet(StubSetMsg{From: "P1", Seq: 2, Objs: []ids.ObjID{6}}); len(d) != 0 {
		t.Fatalf("deleted = %+v", d)
	}
	// Duplicate of seq 2: ignored even though it would delete.
	if d := a.ApplyStubSet(StubSetMsg{From: "P1", Seq: 2, Objs: nil}); len(d) != 0 {
		t.Fatal("duplicate message was applied")
	}
	// Older message (seq 1) that would delete: ignored.
	if d := a.ApplyStubSet(StubSetMsg{From: "P1", Seq: 1, Objs: nil}); len(d) != 0 {
		t.Fatal("stale message was applied")
	}
	if tb.Scion("P1", 6) == nil {
		t.Fatal("scion deleted by stale/duplicate message")
	}
	// Newer empty set: applied.
	if d := a.ApplyStubSet(StubSetMsg{From: "P1", Seq: 3, Objs: nil}); len(d) != 1 {
		t.Fatalf("deleted = %+v", d)
	}
	if a.LastAppliedSeq("P1") != 3 {
		t.Fatalf("LastAppliedSeq = %d", a.LastAppliedSeq("P1"))
	}
}

// Property: after any interleaving of sender rounds and (possibly lossy,
// reordered, duplicated) deliveries, delivering the latest generated set
// leaves the receiver's scions from the sender exactly equal to that set.
func TestStubSetConvergenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sender := NewTable("P1")
		receiver := NewTable("P2")
		sDGC := NewAcyclicDGC(sender)
		rDGC := NewAcyclicDGC(receiver)

		// Receiver starts with scions for objects 0..9 from P1.
		for o := ids.ObjID(0); o < 10; o++ {
			receiver.EnsureScion("P1", o)
		}
		var backlog []StubSetMsg
		for round := 0; round < 8; round++ {
			// Mutate sender stub set randomly over objects 0..9 at P2.
			for o := ids.ObjID(0); o < 10; o++ {
				if rng.Intn(2) == 0 {
					sender.EnsureStub(gref("P2", o))
				} else {
					sender.DeleteStub(gref("P2", o))
				}
			}
			for _, ts := range sDGC.GenerateTargeted() {
				if ts.To == "P2" {
					backlog = append(backlog, ts.Msg)
				}
			}
			// Deliver a random subset, in random order, with duplicates.
			for i := 0; i < len(backlog); i++ {
				j := rng.Intn(len(backlog))
				if rng.Intn(3) != 0 {
					rDGC.ApplyStubSet(backlog[j])
				}
			}
		}
		// Final round: a fresh set, delivered reliably.
		final := sDGC.GenerateTargeted()
		for _, ts := range final {
			if ts.To == "P2" {
				rDGC.ApplyStubSet(ts.Msg)
			}
		}
		// Receiver scions from P1 must now equal the sender's stub set
		// restricted to objects that still have scions (scions only shrink:
		// reference listing never recreates them here).
		current := make(map[ids.ObjID]bool)
		for _, s := range sender.Stubs() {
			if s.Target.Node == "P2" {
				current[s.Target.Obj] = true
			}
		}
		for _, sc := range receiver.Scions() {
			if sc.Src == "P1" && !current[sc.Obj] {
				return false // scion survived that the sender no longer lists
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Safety: a scion for a listed object is never deleted, no matter the
// interleaving — reference listing must not over-collect.
func TestApplyStubSetNeverDeletesListed(t *testing.T) {
	f := func(seqs []uint64, keep uint8) bool {
		tb := NewTable("P2")
		kept := ids.ObjID(keep % 4)
		tb.EnsureScion("P1", kept)
		a := NewAcyclicDGC(tb)
		for _, s := range seqs {
			a.ApplyStubSet(StubSetMsg{From: "P1", Seq: s % 16, Objs: []ids.ObjID{kept}})
		}
		return tb.Scion("P1", kept) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// GenerateChanged says only what the peer has not been told: a skipped set
// moves neither the sequence number nor the empty-set repeat count, and the
// next GenerateTargeted restates everything regardless.
func TestGenerateChangedSkipsUnchangedSets(t *testing.T) {
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	tb.EnsureStub(gref("P3", 1))
	a := NewAcyclicDGC(tb)
	a.EmptySetRepeats = 2
	if out := a.GenerateChanged(); len(out) != 2 {
		t.Fatalf("never-sent sets = %+v, want both stated", out)
	}
	if out := a.GenerateChanged(); len(out) != 0 {
		t.Fatalf("unchanged sets = %+v, want none", out)
	}
	tb.DeleteStub(gref("P3", 1))
	out := a.GenerateChanged()
	if len(out) != 1 || out[0].To != "P3" || len(out[0].Msg.Objs) != 0 || out[0].Msg.Seq != 2 {
		t.Fatalf("after P3's last stub died = %+v, want one empty set, seq 2", out)
	}
	if out := a.GenerateChanged(); len(out) != 0 {
		t.Fatalf("unchanged empty set = %+v, want none", out)
	}
	if a.outSeq["P2"] != 1 || a.outSeq["P3"] != 2 || a.knownPeers["P3"] != 1 {
		t.Fatalf("skipped sets moved state: outSeq=%v repeats=%v", a.outSeq, a.knownPeers)
	}
	// A scheduled round restates both; P3's second empty set is its last.
	out = a.GenerateTargeted()
	if len(out) != 2 || out[0].Msg.Seq != 2 || out[1].Msg.Seq != 3 {
		t.Fatalf("scheduled round = %+v, want P2 seq 2 and P3 seq 3", out)
	}
	if _, known := a.knownPeers["P3"]; known {
		t.Fatal("P3 still known after EmptySetRepeats empty sets")
	}
	// Fingerprints are not persisted: a restored process restates.
	outSeq, inSeq := a.SeqState()
	b := NewAcyclicDGC(tb)
	b.RestoreSeqState(outSeq, inSeq)
	if out := b.GenerateChanged(); len(out) != 2 || out[0].Msg.Seq != 3 {
		t.Fatalf("restored process = %+v, want both peers restated, P2 at seq 3", out)
	}
}
