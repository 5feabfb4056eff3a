package refs

import (
	"fmt"
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
	out := tb.GenerateTargeted()
	if len(out) != 2 {
		t.Fatalf("messages = %d, want 2", len(out))
	}
	if out[0].To != "P2" || out[1].To != "P3" {
		t.Fatalf("destinations = %v, %v", out[0].To, out[1].To)
	}
	if len(out[0].Objs) != 2 || out[0].Objs[0] != 3 || out[0].Objs[1] != 6 {
		t.Fatalf("P2 objs = %v", out[0].Objs)
	}
	if out[0].Seq != 1 {
		t.Fatalf("msg header = %+v", out[0])
	}
}

func TestGenerateTargetedRepeatsEmptySetsByDefault(t *testing.T) {
	// Empty sets repeat forever so scion reclamation survives message loss.
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	tb.GenerateTargeted()
	tb.DeleteStub(gref("P2", 6))
	for round := 0; round < 5; round++ {
		out := tb.GenerateTargeted()
		if len(out) != 1 || out[0].To != "P2" || len(out[0].Objs) != 0 {
			t.Fatalf("round %d: %+v, want a repeated empty set", round, out)
		}
	}
}

func TestNotePeerForcesEmptySetAfterSilentStubDeath(t *testing.T) {
	// A stub deleted before the FIRST generation round (e.g. by the first
	// local collection) must still produce an empty set for its peer: the
	// peer record remembers that it once held a stub.
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	tb.DeleteStub(gref("P2", 6)) // dies before any GenerateTargeted
	out := tb.GenerateTargeted()
	if len(out) != 1 || out[0].To != "P2" || len(out[0].Objs) != 0 {
		t.Fatalf("generated = %+v, want one empty set for P2", out)
	}
}

func TestApplyStubSetDeletesUnlistedScions(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	tb.EnsureScion("P1", 3, 0)
	tb.EnsureScion("P5", 6, 0) // different source: must survive

	deleted := tb.ApplyStubSet("P1", 1, []ids.ObjID{6})
	if len(deleted) != 1 || deleted[0].Obj != 3 || deleted[0].Src != "P1" {
		t.Fatalf("deleted = %+v", deleted)
	}
	if !tb.HasScion("P1", 6) || !tb.HasScion("P5", 6) {
		t.Fatal("listed or foreign scions were deleted")
	}
}

// A set listed out of order or with repeats (no sender here writes one)
// still deletes exactly the unlisted scions, and the message is not
// rewritten in place.
func TestApplyStubSetToleratesUnsortedSets(t *testing.T) {
	tb := NewTable("P2")
	for _, o := range []ids.ObjID{1, 2, 3, 4} {
		tb.EnsureScion("P1", o, 0)
	}
	objs := []ids.ObjID{4, 1, 4, 1}
	deleted := tb.ApplyStubSet("P1", 1, objs)
	if len(deleted) != 2 || deleted[0].Obj != 2 || deleted[1].Obj != 3 {
		t.Fatalf("deleted = %+v, want 2 and 3", deleted)
	}
	if objs[0] != 4 || objs[1] != 1 || objs[2] != 4 || objs[3] != 1 {
		t.Fatalf("message rewritten: %v", objs)
	}
}

func TestApplyStubSetIgnoresStaleAndDuplicate(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)

	if d := tb.ApplyStubSet("P1", 2, []ids.ObjID{6}); len(d) != 0 {
		t.Fatalf("deleted = %+v", d)
	}
	// Duplicate of seq 2: ignored even though it would delete.
	if d := tb.ApplyStubSet("P1", 2, nil); len(d) != 0 {
		t.Fatal("duplicate message was applied")
	}
	// Older message (seq 1) that would delete: ignored.
	if d := tb.ApplyStubSet("P1", 1, nil); len(d) != 0 {
		t.Fatal("stale message was applied")
	}
	if !tb.HasScion("P1", 6) {
		t.Fatal("scion deleted by stale/duplicate message")
	}
	// Newer empty set: applied.
	if d := tb.ApplyStubSet("P1", 3, nil); len(d) != 1 {
		t.Fatalf("deleted = %+v", d)
	}
	if tb.peers["P1"].inSeq != 3 {
		t.Fatalf("last applied seq = %d", tb.peers["P1"].inSeq)
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

		// Receiver starts with scions for objects 0..9 from P1.
		for o := ids.ObjID(0); o < 10; o++ {
			receiver.EnsureScion("P1", o, 0)
		}
		var backlog []TargetedStubSet
		for round := 0; round < 8; round++ {
			// Mutate sender stub set randomly over objects 0..9 at P2.
			for o := ids.ObjID(0); o < 10; o++ {
				if rng.Intn(2) == 0 {
					sender.EnsureStub(gref("P2", o))
				} else {
					sender.DeleteStub(gref("P2", o))
				}
			}
			for _, ts := range sender.GenerateTargeted() {
				if ts.To == "P2" {
					backlog = append(backlog, ts)
				}
			}
			// Deliver a random subset, in random order, with duplicates.
			for i := 0; i < len(backlog); i++ {
				j := rng.Intn(len(backlog))
				if rng.Intn(3) != 0 {
					receiver.ApplyStubSet("P1", backlog[j].Seq, backlog[j].Objs)
				}
			}
		}
		// Final round: a fresh set, delivered reliably.
		final := sender.GenerateTargeted()
		for _, ts := range final {
			if ts.To == "P2" {
				receiver.ApplyStubSet("P1", ts.Seq, ts.Objs)
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
		tb.EnsureScion("P1", kept, 0)
		for _, s := range seqs {
			tb.ApplyStubSet("P1", s%16, []ids.ObjID{kept})
		}
		return tb.HasScion("P1", kept)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// GenerateChanged says only what the peer has not been told: a skipped set
// does not move the sequence number, and the next GenerateTargeted restates
// everything regardless.
func TestGenerateChangedSkipsUnchangedSets(t *testing.T) {
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	tb.EnsureStub(gref("P3", 1))
	if out := tb.GenerateChanged(); len(out) != 2 {
		t.Fatalf("never-sent sets = %+v, want both stated", out)
	}
	if out := tb.GenerateChanged(); len(out) != 0 {
		t.Fatalf("unchanged sets = %+v, want none", out)
	}
	tb.DeleteStub(gref("P3", 1))
	out := tb.GenerateChanged()
	if len(out) != 1 || out[0].To != "P3" || len(out[0].Objs) != 0 || out[0].Seq != 2 {
		t.Fatalf("after P3's last stub died = %+v, want one empty set, seq 2", out)
	}
	if out := tb.GenerateChanged(); len(out) != 0 {
		t.Fatalf("unchanged empty set = %+v, want none", out)
	}
	if tb.peers["P2"].outSeq != 1 || tb.peers["P3"].outSeq != 2 {
		t.Fatalf("skipped sets moved state: outSeq=%d,%d", tb.peers["P2"].outSeq, tb.peers["P3"].outSeq)
	}
	// A scheduled round restates both.
	out = tb.GenerateTargeted()
	if len(out) != 2 || out[0].Seq != 2 || out[1].Seq != 3 {
		t.Fatalf("scheduled round = %+v, want P2 seq 2 and P3 seq 3", out)
	}
	// Fingerprints are not persisted: a restored process restates.
	outSeq, inSeq := tb.SeqState()
	b := NewTable("P1")
	for _, s := range tb.Stubs() {
		b.RestoreStub(s.Target, s.IC)
	}
	b.RestoreSeqState(outSeq, inSeq)
	if out := b.GenerateChanged(); len(out) != 2 || out[0].Seq != 3 {
		t.Fatalf("restored process = %+v, want both peers restated, P2 at seq 3", out)
	}
}

// A peer that only holds references into this process, or has only sent it
// messages, is owed no stub set: only a peer that has held a stub is.
func TestGenerateSkipsPeersThatNeverHeldAStub(t *testing.T) {
	tb := NewTable("P1")
	tb.EnsureScion("P2", 1, 0)
	tb.Renew("P3", 0)
	tb.ApplyStubSet("P4", 1, nil)
	tb.EnsureStub(gref("P5", 2))
	if out := tb.GenerateTargeted(); len(out) != 1 || out[0].To != "P5" {
		t.Fatalf("generated = %+v, want one set, for P5", out)
	}
}

// newStubSetTable returns a table holding perPeer scions for peer Q00 and
// for each of others more peers, and the objects Q00's complete set lists.
func newStubSetTable(others, perPeer int) (*Table, []ids.ObjID) {
	tb := NewTable("P0")
	objs := make([]ids.ObjID, perPeer)
	for i := range objs {
		objs[i] = ids.ObjID(i)
	}
	for p := 0; p <= others; p++ {
		src := ids.NodeID(fmt.Sprintf("Q%02d", p))
		for _, o := range objs {
			tb.EnsureScion(src, o, 0)
		}
	}
	return tb, objs
}

// BenchmarkApplyStubSet applies one peer's complete set of 1,000 listed
// scions beside 0 or 63 other peers holding 1,000 scions each. Only the
// sender's record is read, so the cost is flat in the other peers' scions.
func BenchmarkApplyStubSet(b *testing.B) {
	for _, others := range []int{0, 63} {
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			tb, objs := newStubSetTable(others, 1000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := tb.ApplyStubSet("Q00", uint64(i+1), objs); len(d) != 0 {
					b.Fatalf("deleted %d listed scions", len(d))
				}
			}
		})
	}
}
