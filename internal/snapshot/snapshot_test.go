package snapshot

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"dgc/internal/core"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

func gref(n ids.NodeID, o ids.ObjID) ids.GlobalRef { return ids.GlobalRef{Node: n, Obj: o} }

// buildSampleHeap creates the P2 fragment of the paper's Figure 3:
// scion (P1 -> F), local chain F -> H -> J plus F -> G -> H, and J holding a
// remote reference to Q at P4 (so a stub for Q_P4).
func buildSampleHeap(t *testing.T) (*heap.Heap, *refs.Table, map[string]ids.ObjID) {
	t.Helper()
	h := heap.New("P2")
	tb := refs.NewTable("P2")
	names := map[string]ids.ObjID{}
	for _, n := range []string{"F", "G", "H", "J"} {
		names[n] = h.Alloc(nil).ID
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(h.AddLocalRef(names["F"], names["H"]))
	must(h.AddLocalRef(names["F"], names["G"]))
	must(h.AddLocalRef(names["G"], names["H"]))
	must(h.AddLocalRef(names["H"], names["J"]))
	must(h.AddRemoteRef(names["J"], gref("P4", 17)))
	tb.EnsureScion("P1", names["F"], 0)
	tb.EnsureStub(gref("P4", 17))
	return h, tb, names
}

func TestSummarizeFigure3Fragment(t *testing.T) {
	h, tb, names := buildSampleHeap(t)
	sum := Summarize(h, tb, 1)

	scionRef := ids.RefID{Src: "P1", Dst: gref("P2", names["F"])}
	sc, ok := sum.Scion(scionRef)
	if !ok {
		t.Fatal("scion summary missing")
	}
	// Paper: Scion(F_P2) => {StubsFrom == {Q_P4}}
	if len(sc.StubsFrom) != 1 || sc.StubsFrom[0] != gref("P4", 17) {
		t.Fatalf("StubsFrom = %v", sc.StubsFrom)
	}
	// Paper: Stub(Q_P4) => {ScionsTo == {F_P2}, Local.Reach == false}
	st, ok := sum.Stub(gref("P4", 17))
	if !ok {
		t.Fatal("stub summary missing")
	}
	if len(st.ScionsTo) != 1 || st.ScionsTo[0] != scionRef {
		t.Fatalf("ScionsTo = %v", st.ScionsTo)
	}
	if st.LocalReach {
		t.Fatal("Local.Reach must be false: no local root")
	}
}

func TestSummarizeLocalReach(t *testing.T) {
	h, tb, names := buildSampleHeap(t)
	// Root G: G reaches H -> J which holds the remote ref, so the stub
	// becomes locally reachable.
	if err := h.AddRoot(names["G"]); err != nil {
		t.Fatal(err)
	}
	sum := Summarize(h, tb, 2)
	if st, _ := sum.Stub(gref("P4", 17)); !st.LocalReach {
		t.Fatal("Local.Reach should be true with G rooted")
	}
}

func TestSummarizeMultipleScionsToSameStub(t *testing.T) {
	// Two scions on different objects, both leading to the same stub: the
	// stub's ScionsTo must list both (the extra-dependency mechanism §3.1).
	h := heap.New("P5")
	tb := refs.NewTable("P5")
	v := h.Alloc(nil)
	y := h.Alloc(nil)
	mid := h.Alloc(nil)
	for _, err := range []error{
		h.AddLocalRef(v.ID, mid.ID),
		h.AddLocalRef(y.ID, mid.ID),
		h.AddRemoteRef(mid.ID, gref("P4", 20)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	tb.EnsureScion("P2", v.ID, 0)
	tb.EnsureScion("P6", y.ID, 0)
	tb.EnsureStub(gref("P4", 20))

	sum := Summarize(h, tb, 1)
	st, _ := sum.Stub(gref("P4", 20))
	if len(st.ScionsTo) != 2 {
		t.Fatalf("ScionsTo = %v, want two scions", st.ScionsTo)
	}
}

func TestSummarizeCapturesICs(t *testing.T) {
	h, tb, names := buildSampleHeap(t)
	if _, err := tb.BumpScionIC("P1", names["F"], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BumpStubIC(gref("P4", 17)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BumpStubIC(gref("P4", 17)); err != nil {
		t.Fatal(err)
	}
	sum := Summarize(h, tb, 1)
	if sc, _ := sum.Scion(ids.RefID{Src: "P1", Dst: gref("P2", names["F"])}); sc.IC != 1 {
		t.Fatalf("scion IC = %d", sc.IC)
	}
	if st, _ := sum.Stub(gref("P4", 17)); st.IC != 2 {
		t.Fatalf("stub IC = %d", st.IC)
	}
}

func TestSummaryIsImmutableAgainstMutator(t *testing.T) {
	h, tb, names := buildSampleHeap(t)
	snap := h.Clone()
	sum := Summarize(snap, tb, 1)
	// Mutator deletes the path F -> H after the snapshot.
	if err := h.RemoveLocalRef(names["F"], names["H"]); err != nil {
		t.Fatal(err)
	}
	// Summary still reflects snapshot state.
	if got, _ := sum.Scion(ids.RefID{Src: "P1", Dst: gref("P2", names["F"])}); len(got.StubsFrom) != 1 {
		t.Fatalf("summary changed under mutation: %v", got.StubsFrom)
	}
}

func TestNilSummaryLookupsAreSafe(t *testing.T) {
	var s *core.Summary
	_, okSc := s.Scion(ids.RefID{})
	_, okSt := s.Stub(ids.GlobalRef{})
	if okSc || okSt {
		t.Fatal("nil summary lookups must find nothing")
	}
}

func codecs() []Codec { return []Codec{BinaryCodec{}, ReflectCodec{}} }

func TestCodecRoundTripSample(t *testing.T) {
	h, _, names := buildSampleHeap(t)
	if err := h.AddRoot(names["G"]); err != nil {
		t.Fatal(err)
	}
	h.Get(names["F"]).Payload = []byte{0x00, 0x01, 0xFF}
	for _, c := range codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.Encode(h)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			assertHeapsEqual(t, h, got)
		})
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	for _, c := range codecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				h := randomHeap(seed)
				data, err := c.Encode(h)
				if err != nil {
					return false
				}
				got, err := c.Decode(data)
				if err != nil {
					return false
				}
				return heapsEqual(h, got)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a snapshot"),
		[]byte(binaryMagic), // truncated after magic
	}
	for _, data := range cases {
		if _, err := (BinaryCodec{}).Decode(data); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", data)
		}
	}
}

func TestBinaryDecodeRejectsTruncation(t *testing.T) {
	h, _, _ := buildSampleHeap(t)
	data, err := (BinaryCodec{}).Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(data); cut += 7 {
		if _, err := (BinaryCodec{}).Decode(data[:len(data)-cut]); err == nil {
			t.Fatalf("decoding %d-byte truncation succeeded", cut)
		}
	}
}

func TestReflectDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		"field ID = 3\n",           // field outside object
		"bogus line\n",             // unknown directive
		"object\n  field ID = x\n", // bad integer
		"",                         // missing header
	}
	for _, s := range cases {
		if _, err := (ReflectCodec{}).Decode([]byte(s)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", s)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	h, _, _ := buildSampleHeap(t)
	for _, c := range codecs() {
		path := filepath.Join(dir, "snap."+c.Name())
		data, err := c.Encode(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(c, path)
		if err != nil {
			t.Fatal(err)
		}
		assertHeapsEqual(t, h, got)
	}
	if _, err := ReadFile(BinaryCodec{}, filepath.Join(dir, "missing")); err == nil {
		t.Error("ReadFile on missing path should fail")
	}
}

func TestBinarySmallerThanReflect(t *testing.T) {
	h := randomHeap(42)
	bin, err := (BinaryCodec{}).Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := (ReflectCodec{}).Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(txt) {
		t.Errorf("binary (%d bytes) not smaller than reflect (%d bytes)", len(bin), len(txt))
	}
}

func randomHeap(seed int64) *heap.Heap {
	rng := rand.New(rand.NewSource(seed))
	h := heap.New(ids.NodeID("P" + string(rune('1'+rng.Intn(5)))))
	n := 1 + rng.Intn(25)
	objs := make([]ids.ObjID, n)
	for i := range objs {
		var payload []byte
		if rng.Intn(2) == 0 {
			payload = make([]byte, rng.Intn(16))
			rng.Read(payload)
			if len(payload) == 0 {
				payload = nil
			}
		}
		objs[i] = h.Alloc(payload).ID
	}
	for i := 0; i < 2*n; i++ {
		_ = h.AddLocalRef(objs[rng.Intn(n)], objs[rng.Intn(n)])
	}
	for i := 0; i < n/2; i++ {
		_ = h.AddRemoteRef(objs[rng.Intn(n)], gref(ids.NodeID("Q"+string(rune('1'+rng.Intn(3)))), ids.ObjID(rng.Intn(50))))
	}
	for i := 0; i < n/4; i++ {
		_ = h.AddRoot(objs[rng.Intn(n)])
	}
	return h
}

func heapsEqual(a, b *heap.Heap) bool {
	if a.Node() != b.Node() || a.Len() != b.Len() || a.NextID() != b.NextID() {
		return false
	}
	ra, rb := a.Roots(), b.Roots()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	equal := true
	a.ForEach(func(oa *heap.Object) {
		ob := b.Get(oa.ID)
		if ob == nil {
			equal = false
			return
		}
		if len(oa.Locals) != len(ob.Locals) || len(oa.Remotes) != len(ob.Remotes) || !bytes.Equal(oa.Payload, ob.Payload) {
			equal = false
			return
		}
		for i := range oa.Locals {
			if oa.Locals[i] != ob.Locals[i] {
				equal = false
			}
		}
		for i := range oa.Remotes {
			if oa.Remotes[i] != ob.Remotes[i] {
				equal = false
			}
		}
	})
	return equal
}

func assertHeapsEqual(t *testing.T, a, b *heap.Heap) {
	t.Helper()
	if !heapsEqual(a, b) {
		t.Fatal("heaps differ after round trip")
	}
}
