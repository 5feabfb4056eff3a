package refs

import (
	"testing"

	"dgc/internal/ids"
)

func gref(n ids.NodeID, o ids.ObjID) ids.GlobalRef { return ids.GlobalRef{Node: n, Obj: o} }

func TestEnsureStubIdempotent(t *testing.T) {
	tb := NewTable("P1")
	if !tb.EnsureStub(gref("P2", 6)) {
		t.Fatal("first EnsureStub should create")
	}
	if _, err := tb.BumpStubIC(gref("P2", 6)); err != nil {
		t.Fatal(err)
	}
	if tb.EnsureStub(gref("P2", 6)) {
		t.Fatal("second EnsureStub should not create")
	}
	if ic, ok := tb.StubIC(gref("P2", 6)); !ok || ic != 1 {
		t.Fatalf("second EnsureStub reset the stub: IC %d, present %v", ic, ok)
	}
	if tb.NumStubs() != 1 {
		t.Fatalf("NumStubs = %d", tb.NumStubs())
	}
}

func TestStubLookupAndDelete(t *testing.T) {
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	if !tb.HasStub(gref("P2", 6)) {
		t.Fatal("Stub lookup failed")
	}
	if tb.HasStub(gref("P2", 7)) {
		t.Fatal("Stub lookup should miss")
	}
	tb.DeleteStub(gref("P2", 6))
	if tb.HasStub(gref("P2", 6)) {
		t.Fatal("stub still present after delete")
	}
	tb.DeleteStub(gref("P2", 6)) // no-op
}

func TestStubsSorted(t *testing.T) {
	tb := NewTable("P1")
	tb.EnsureStub(gref("P3", 1))
	tb.EnsureStub(gref("P2", 9))
	tb.EnsureStub(gref("P2", 2))
	stubs := tb.Stubs()
	if len(stubs) != 3 {
		t.Fatalf("len = %d", len(stubs))
	}
	if stubs[0].Target != gref("P2", 2) || stubs[1].Target != gref("P2", 9) || stubs[2].Target != gref("P3", 1) {
		t.Fatalf("unsorted stubs: %v %v %v", stubs[0].Target, stubs[1].Target, stubs[2].Target)
	}
}

func TestEnsureScionIdempotentPerSource(t *testing.T) {
	tb := NewTable("P2")
	if !tb.EnsureScion("P1", 6, 0) {
		t.Fatal("first EnsureScion should create")
	}
	if tb.EnsureScion("P1", 6, 0) {
		t.Fatal("duplicate EnsureScion should not create")
	}
	// Same object, different source: a distinct scion (reference listing).
	if !tb.EnsureScion("P5", 6, 0) {
		t.Fatal("scion from another source must be distinct")
	}
	if _, err := tb.BumpScionIC("P5", 6, 0); err != nil {
		t.Fatal(err)
	}
	if ic, _ := tb.ScionIC("P1", 6); ic != 0 {
		t.Fatalf("bumping P5's scion moved P1's to IC %d", ic)
	}
	if tb.NumScions() != 2 {
		t.Fatalf("NumScions = %d", tb.NumScions())
	}
}

func TestDeleteScion(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	if !tb.DeleteScion("P1", 6) {
		t.Fatal("DeleteScion should report true")
	}
	if tb.DeleteScion("P1", 6) {
		t.Fatal("second DeleteScion should report false")
	}
	if tb.HasScion("P1", 6) {
		t.Fatal("scion still present")
	}
}

func TestScionTargetsDeduplicated(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	tb.EnsureScion("P5", 6, 0)
	tb.EnsureScion("P1", 2, 0)
	targets := tb.ScionTargets()
	if len(targets) != 2 || targets[0] != 2 || targets[1] != 6 {
		t.Fatalf("ScionTargets = %v", targets)
	}
}

func TestScionRefID(t *testing.T) {
	s := Scion{Src: "P1", Obj: 6}
	r := s.RefID("P2")
	want := ids.RefID{Src: "P1", Dst: gref("P2", 6)}
	if r != want {
		t.Fatalf("RefID = %v, want %v", r, want)
	}
}

func TestBumpICs(t *testing.T) {
	tb := NewTable("P1")
	tb.EnsureStub(gref("P2", 6))
	if ic, err := tb.BumpStubIC(gref("P2", 6)); err != nil || ic != 1 {
		t.Fatalf("BumpStubIC = %d, %v", ic, err)
	}
	if ic, err := tb.BumpStubIC(gref("P2", 6)); err != nil || ic != 2 {
		t.Fatalf("BumpStubIC = %d, %v", ic, err)
	}
	if _, err := tb.BumpStubIC(gref("P9", 9)); err == nil {
		t.Fatal("BumpStubIC on missing stub should fail")
	}

	tb2 := NewTable("P2")
	tb2.EnsureScion("P1", 6, 0)
	if ic, err := tb2.BumpScionIC("P1", 6, 0); err != nil || ic != 1 {
		t.Fatalf("BumpScionIC = %d, %v", ic, err)
	}
	if _, err := tb2.BumpScionIC("P9", 6, 0); err == nil {
		t.Fatal("BumpScionIC on missing scion should fail")
	}
}

func TestScionsSorted(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P5", 1, 0)
	tb.EnsureScion("P1", 9, 0)
	tb.EnsureScion("P1", 3, 0)
	s := tb.Scions()
	if s[0].Src != "P1" || s[0].Obj != 3 || s[1].Obj != 9 || s[2].Src != "P5" {
		t.Fatalf("Scions order: %+v %+v %+v", s[0], s[1], s[2])
	}
}

// TestRecreatedScionCarriesOnlyItsNewStamp: the activity stamp lives in the
// scion record, so every deletion path takes it away with the scion, and a
// scion created again later is stamped at its new creation alone — never
// at the busier past of the reference it replaces.
func TestRecreatedScionCarriesOnlyItsNewStamp(t *testing.T) {
	for _, c := range []struct {
		name string
		del  func(tb *Table)
	}{
		{"DeleteScion", func(tb *Table) { tb.DeleteScion("P2", 6) }},
		{"ApplyStubSet", func(tb *Table) { tb.ApplyStubSet("P2", 1, nil) }},
		{"ExpireHolder", func(tb *Table) { tb.Renew("P2", 0); tb.ExpireHolder("P2", 10, 3) }},
		{"ReleaseCustodial", func(tb *Table) { tb.Pin("P2", 6); tb.ReleaseCustodial("P2") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := NewTable("P1")
			tb.EnsureScion("P2", 6, 40)
			if _, err := tb.BumpScionIC("P2", 6, 100); err != nil {
				t.Fatal(err)
			}
			c.del(tb)
			if tb.HasScion("P2", 6) {
				t.Fatal("scion survived its deletion")
			}
			tb.EnsureScion("P2", 6, 7)
			if got := tb.Scions(); len(got) != 1 || got[0].Active != 7 || got[0].IC != 0 {
				t.Fatalf("re-created scion = %+v, want IC 0 stamped at 7", got)
			}
		})
	}
}
