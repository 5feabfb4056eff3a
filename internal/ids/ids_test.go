package ids

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestGlobalRefString(t *testing.T) {
	g := GlobalRef{Node: "P2", Obj: 6}
	if got, want := g.String(), "6@P2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestGlobalRefIsZero(t *testing.T) {
	if !(GlobalRef{}).IsZero() {
		t.Error("zero GlobalRef should report IsZero")
	}
	if (GlobalRef{Node: "P1"}).IsZero() {
		t.Error("non-zero GlobalRef should not report IsZero")
	}
	if (GlobalRef{Obj: 1}).IsZero() {
		t.Error("non-zero GlobalRef should not report IsZero")
	}
}

func TestGlobalRefLessOrdering(t *testing.T) {
	cases := []struct {
		a, b GlobalRef
		want bool
	}{
		{GlobalRef{"P1", 1}, GlobalRef{"P2", 0}, true},
		{GlobalRef{"P2", 0}, GlobalRef{"P1", 1}, false},
		{GlobalRef{"P1", 1}, GlobalRef{"P1", 2}, true},
		{GlobalRef{"P1", 2}, GlobalRef{"P1", 1}, false},
		{GlobalRef{"P1", 1}, GlobalRef{"P1", 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRefIDString(t *testing.T) {
	r := RefID{Src: "P1", Dst: GlobalRef{Node: "P2", Obj: 6}}
	if got, want := r.String(), "P1->6@P2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRefIDLessTotalOrder(t *testing.T) {
	// Less must be a strict weak ordering: irreflexive and asymmetric.
	f := func(aSrc, bSrc uint8, aNode, bNode uint8, aObj, bObj ObjID) bool {
		a := RefID{Src: NodeID(rune('A' + aSrc%4)), Dst: GlobalRef{Node: NodeID(rune('A' + aNode%4)), Obj: aObj % 8}}
		b := RefID{Src: NodeID(rune('A' + bSrc%4)), Dst: GlobalRef{Node: NodeID(rune('A' + bNode%4)), Obj: bObj % 8}}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortRefIDsDeterministic(t *testing.T) {
	refs := []RefID{
		{Src: "P3", Dst: GlobalRef{"P1", 2}},
		{Src: "P1", Dst: GlobalRef{"P2", 9}},
		{Src: "P1", Dst: GlobalRef{"P2", 3}},
		{Src: "P1", Dst: GlobalRef{"P1", 3}},
	}
	SortRefIDs(refs)
	if !sort.SliceIsSorted(refs, func(i, j int) bool { return refs[i].Less(refs[j]) }) {
		t.Errorf("SortRefIDs left slice unsorted: %v", refs)
	}
	if refs[0].Src != "P1" || refs[0].Dst != (GlobalRef{"P1", 3}) {
		t.Errorf("unexpected first element %v", refs[0])
	}
}

func TestSortGlobalRefs(t *testing.T) {
	refs := []GlobalRef{{"P2", 1}, {"P1", 9}, {"P1", 2}}
	SortGlobalRefs(refs)
	want := []GlobalRef{{"P1", 2}, {"P1", 9}, {"P2", 1}}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("SortGlobalRefs = %v, want %v", refs, want)
		}
	}
}

func TestSortNodeIDs(t *testing.T) {
	nodes := []NodeID{"P3", "P1", "P2"}
	SortNodeIDs(nodes)
	if nodes[0] != "P1" || nodes[1] != "P2" || nodes[2] != "P3" {
		t.Errorf("SortNodeIDs = %v", nodes)
	}
}

func TestFormatRefSet(t *testing.T) {
	set := map[RefID]struct{}{
		{Src: "P3", Dst: GlobalRef{"P1", 2}}: {},
		{Src: "P1", Dst: GlobalRef{"P2", 6}}: {},
	}
	if got, want := FormatRefSet(set), "{P1->6@P2, P3->2@P1}"; got != want {
		t.Errorf("FormatRefSet = %q, want %q", got, want)
	}
	if got, want := FormatRefSet(nil), "{}"; got != want {
		t.Errorf("FormatRefSet(nil) = %q, want %q", got, want)
	}
}

func TestParseRefID(t *testing.T) {
	nodes := []NodeID{"P1", "P2", "n", "127.0.0.1:7001", "node-a", "a@b", "x>y"}
	objs := []ObjID{0, 1, 3, 42, 1 << 32, ^ObjID(0)}
	for _, src := range nodes {
		for _, dst := range nodes {
			for _, obj := range objs {
				ref := RefID{Src: src, Dst: GlobalRef{Node: dst, Obj: obj}}
				got, err := ParseRefID(ref.String())
				if err != nil {
					t.Fatalf("ParseRefID(%q): %v", ref.String(), err)
				}
				if got != ref {
					t.Errorf("round trip of %q: got %+v, want %+v", ref.String(), got, ref)
				}
			}
		}
	}
	for _, bad := range []string{"", "P1", "P1->", "P1->x@P2", "P1->3", "->3@P2", "P1->3@", "P1->-1@P2", "P1->18446744073709551616@P2"} {
		if _, err := ParseRefID(bad); err == nil {
			t.Errorf("ParseRefID(%q) accepted", bad)
		}
	}
}
