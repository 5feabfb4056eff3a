package wire

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// batchRefs returns a few distinct canonical references for batch tests.
// The first two and the last lead from P1 into P2: alongs of one message.
func batchRefs() []ids.RefID {
	return []ids.RefID{
		{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 1}},
		{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 5}},
		{Src: "P2", Dst: ids.GlobalRef{Node: "P3", Obj: 2}},
		{Src: "P3", Dst: ids.GlobalRef{Node: "P1", Obj: 9}},
		{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 7}},
	}
}

// testBatch builds a batch whose sections overlap on refs — the
// shared-dictionary case — and, unless it is a partial return, travel three
// different alongs into P2: one named by no section's algebra, and one
// detection along two references. A return carries the first three
// algebras with no along.
func testBatch(ret bool) *BatchCDM {
	rs := batchRefs()
	a1 := core.NewAlg()
	a1.Set(rs[0], core.Entry{InSource: true, SrcIC: 2})
	a1.Set(rs[2], core.Entry{InTarget: true, TgtIC: 3})
	a2 := core.NewAlg()
	a2.Set(rs[0], core.Entry{InSource: true, SrcIC: 2, InTarget: true, TgtIC: 2})
	a2.Set(rs[1], core.Entry{InTarget: true, TgtIC: 7})
	a3 := core.NewAlg()
	a3.Set(rs[3], core.Entry{InSource: true, SrcIC: 1})
	d1, d2, d3 := core.DetectionID{Origin: "P1", Seq: 1}, core.DetectionID{Origin: "P1", Seq: 2}, core.DetectionID{Origin: "P4", Seq: 1}
	if ret {
		return NewBatchCDM(4, true, []BatchSection{
			NewBatchSection(d1, ids.RefID{}, a1),
			NewBatchSection(d2, ids.RefID{}, a2),
			NewBatchSection(d3, ids.RefID{}, a3),
		})
	}
	return NewBatchCDM(4, false, []BatchSection{
		NewBatchSection(d1, rs[0], a1),
		NewBatchSection(d2, rs[1], a2),
		NewBatchSection(d3, rs[4], a3),
		NewBatchSection(d1, rs[1], a1),
	})
}

func TestBatchCDMRoundTrip(t *testing.T) {
	for _, ret := range []bool{false, true} {
		m := testBatch(ret)
		data := Encode(m)
		if n := EncodedSize(m); n != len(data) {
			t.Fatalf("ret=%v: EncodedSize = %d, len(Encode) = %d", ret, n, len(data))
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("ret=%v: decode: %v", ret, err)
		}
		b, ok := got.(*BatchCDM)
		if !ok {
			t.Fatalf("decoded %T", got)
		}
		if b.Hops != m.Hops || b.Return != m.Return {
			t.Fatalf("header mismatch: %+v vs %+v", b, m)
		}
		if len(b.Sections) != len(m.Sections) {
			t.Fatalf("sections = %d, want %d", len(b.Sections), len(m.Sections))
		}
		for i := range m.Sections {
			ws, ds := &m.Sections[i], &b.Sections[i]
			if ds.Det != ws.Det || ds.Along != ws.Along {
				t.Fatalf("section %d identity mismatch: %+v vs %+v", i, ds, ws)
			}
			if !carried(ds).Equal(carried(ws)) {
				t.Fatalf("section %d algebra mismatch", i)
			}
		}
		// Canonical form: the decoded message re-encodes byte-identically,
		// and sizes itself without NewBatchCDM's dictionary.
		if re := Encode(b); !reflect.DeepEqual(re, data) {
			t.Fatalf("ret=%v: not canonical:\n in  %x\n out %x", ret, data, re)
		}
		if n := EncodedSize(b); n != len(data) {
			t.Fatalf("ret=%v: decoded EncodedSize = %d, want %d", ret, n, len(data))
		}
	}
}

// TestBatchCDMDictionary pins the shared dictionary of testBatch: every
// reference an algebra or an along names, once, in canonical order — the
// along no algebra names included.
func TestBatchCDMDictionary(t *testing.T) {
	rs := batchRefs()
	d := testBatch(false).flat()
	want := []ids.RefID{rs[0], rs[1], rs[4], rs[2], rs[3]}
	if !reflect.DeepEqual(d.Refs, want) {
		t.Fatalf("dictionary %v, want %v", d.Refs, want)
	}
	if !reflect.DeepEqual(d.Extra, []int{0, 1, 2, 1}) {
		t.Fatalf("along indices %v", d.Extra)
	}
	var idx [][]uint32
	for i := range 4 {
		var s []uint32
		for _, e := range d.Section(i) {
			s = append(s, e.Index)
		}
		idx = append(idx, s)
	}
	if got := fmt.Sprint(idx); got != "[[0 3] [0 1] [4] [0 3]]" {
		t.Fatalf("entry indices %s", got)
	}
}

func TestBatchSectionMergePathsAgree(t *testing.T) {
	// A section merged in this process and the same section decoded off the
	// wire must produce identical unions.
	m := testBatch(false)
	data := Encode(m)
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	b := dec.(*BatchCDM)
	for i := range m.Sections {
		inProc, decoded := core.NewAlg(), core.NewAlg()
		if _, conflict := m.Sections[i].MergeAlgInto(inProc); conflict {
			t.Fatalf("section %d: in-process merge conflict", i)
		}
		if _, conflict := b.Sections[i].MergeAlgInto(decoded); conflict {
			t.Fatalf("section %d: decoded merge conflict", i)
		}
		if !inProc.Equal(decoded) {
			t.Fatalf("section %d: merge paths disagree", i)
		}
	}
}

func TestBatchCDMTruncationErrorsNotPanics(t *testing.T) {
	for _, ret := range []bool{false, true} {
		data := Encode(testBatch(ret))
		for n := 1; n < len(data); n++ {
			if _, err := Decode(data[:n]); err == nil {
				t.Fatalf("ret=%v: %d-byte prefix of %d accepted", ret, n, len(data))
			}
		}
	}
}

// rawBatch hand-assembles a KindBatchCDM payload so tests can express
// malformed framings the encoder cannot produce.
type rawBatch struct{ buf []byte }

func newRawBatch(hops uint64, ret bool, dict []ids.RefID) *rawBatch {
	b := &rawBatch{buf: []byte{byte(KindBatchCDM)}}
	b.buf = putUint(b.buf, hops)
	b.buf = putBool(b.buf, ret)
	b.buf = putUint(b.buf, uint64(len(dict)))
	for _, r := range dict {
		b.buf = putRefID(b.buf, r)
	}
	return b
}

func (b *rawBatch) sections(n int) *rawBatch {
	b.buf = putUint(b.buf, uint64(n))
	return b
}

// section appends a forward section travelling along dictionary entry
// along, with one source entry per listed dictionary index.
func (b *rawBatch) section(origin ids.NodeID, seq, along uint64, entries ...uint64) *rawBatch {
	b.buf = putNode(b.buf, origin)
	b.buf = putUint(b.buf, seq)
	b.buf = putUint(b.buf, along)
	b.buf = putUint(b.buf, uint64(len(entries)))
	for _, idx := range entries {
		b.buf = putUint(b.buf, idx)
		b.buf = putBool(b.buf, true) // in source
		b.buf = putUint(b.buf, 1)    // src ic
		b.buf = putBool(b.buf, false)
		b.buf = putUint(b.buf, 0)
	}
	return b
}

func TestBatchCDMRejectsMalformed(t *testing.T) {
	rs := batchRefs()
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{
			"zero sections",
			newRawBatch(1, false, rs[:1]).sections(0).buf,
			"zero sections",
		},
		{
			"zero-entry section",
			newRawBatch(1, false, rs[:1]).sections(1).section("P1", 1, 0).buf,
			"zero entries",
		},
		{
			"duplicate detection ids",
			newRawBatch(1, false, rs[:2]).sections(2).
				section("P1", 7, 0, 1).section("P1", 7, 0, 1).buf,
			"duplicate detection",
		},
		{
			"dictionary out of order",
			newRawBatch(1, false, []ids.RefID{rs[1], rs[0]}).sections(1).
				section("P1", 1, 0, 0, 1).buf,
			"canonical order",
		},
		{
			"unused dictionary ref",
			newRawBatch(1, false, rs[:3]).sections(1).section("P1", 1, 0, 1).buf,
			"unused dictionary ref",
		},
		{
			"along index out of range",
			newRawBatch(1, false, rs[:1]).sections(1).section("P1", 1, 1, 0).buf,
			"along index 1 out of dictionary range",
		},
		{
			"entry index out of range",
			newRawBatch(1, false, rs[:1]).sections(1).section("P1", 1, 0, 3).buf,
			"out of dictionary range",
		},
		{
			"entries out of order",
			newRawBatch(1, false, rs[:2]).sections(1).section("P1", 1, 0, 1, 0).buf,
			"canonical order",
		},
		{
			"repeated entry index",
			newRawBatch(1, false, rs[:1]).sections(1).section("P1", 1, 0, 0, 0).buf,
			"canonical order",
		},
		{
			"hops overflow",
			newRawBatch(1<<40, false, rs[:1]).sections(1).section("P1", 1, 0, 0).buf,
			"overflows",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if err == nil {
				t.Fatal("malformed batch accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
