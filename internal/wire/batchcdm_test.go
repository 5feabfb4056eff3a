package wire

import (
	"reflect"
	"strings"
	"testing"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// batchRefs returns a few distinct canonical references for batch tests.
func batchRefs() []ids.RefID {
	return []ids.RefID{
		{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 1}},
		{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 5}},
		{Src: "P2", Dst: ids.GlobalRef{Node: "P3", Obj: 2}},
		{Src: "P3", Dst: ids.GlobalRef{Node: "P1", Obj: 9}},
	}
}

// testBatch builds a three-section batch whose sections overlap on refs —
// the shared-dictionary case batching exists for.
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
	return NewBatchCDM(rs[2], 4, ret, []BatchSection{
		NewBatchSection(core.DetectionID{Origin: "P1", Seq: 1}, 11, a1),
		NewBatchSection(core.DetectionID{Origin: "P1", Seq: 2}, 12, a2),
		NewBatchSection(core.DetectionID{Origin: "P4", Seq: 1}, 13, a3),
	})
}

func TestBatchCDMRoundTrip(t *testing.T) {
	for _, ret := range []bool{false, true} {
		m := testBatch(ret)
		data := Encode(m)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("ret=%v: decode: %v", ret, err)
		}
		b, ok := got.(*BatchCDM)
		if !ok {
			t.Fatalf("decoded %T", got)
		}
		if b.Along != m.Along || b.Hops != m.Hops || b.Return != m.Return {
			t.Fatalf("header mismatch: %+v vs %+v", b, m)
		}
		if len(b.Sections) != len(m.Sections) {
			t.Fatalf("sections = %d, want %d", len(b.Sections), len(m.Sections))
		}
		for i := range m.Sections {
			ws, ds := &m.Sections[i], &b.Sections[i]
			if ds.Det != ws.Det || ds.Trace != ws.Trace {
				t.Fatalf("section %d identity mismatch", i)
			}
			if !carried(ds).Equal(carried(ws)) {
				t.Fatalf("section %d algebra mismatch", i)
			}
		}
		// Canonical form: the decoded message re-encodes byte-identically.
		if re := Encode(b); !reflect.DeepEqual(re, data) {
			t.Fatalf("ret=%v: not canonical:\n in  %x\n out %x", ret, data, re)
		}
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

func newRawBatch(along ids.RefID, hops uint64, ret bool, dict []ids.RefID) *rawBatch {
	b := &rawBatch{buf: []byte{byte(KindBatchCDM)}}
	b.buf = putRefID(b.buf, along)
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

func (b *rawBatch) section(origin ids.NodeID, seq uint64, entries ...uint64) *rawBatch {
	b.buf = putNode(b.buf, origin)
	b.buf = putUint(b.buf, seq)
	b.buf = putUint(b.buf, 99) // trace
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
			newRawBatch(rs[0], 1, false, rs[:1]).sections(0).buf,
			"zero sections",
		},
		{
			"zero-entry section",
			newRawBatch(rs[0], 1, false, rs[:1]).sections(1).section("P1", 1).buf,
			"zero entries",
		},
		{
			"duplicate detection ids",
			newRawBatch(rs[0], 1, false, rs[:1]).sections(2).
				section("P1", 7, 0).section("P1", 7, 0).buf,
			"duplicate detection",
		},
		{
			"dictionary out of order",
			newRawBatch(rs[0], 1, false, []ids.RefID{rs[1], rs[0]}).sections(1).
				section("P1", 1, 0, 1).buf,
			"canonical order",
		},
		{
			"unused dictionary ref",
			newRawBatch(rs[0], 1, false, rs[:2]).sections(1).section("P1", 1, 0).buf,
			"unused dictionary ref",
		},
		{
			"entry index out of range",
			newRawBatch(rs[0], 1, false, rs[:1]).sections(1).section("P1", 1, 3).buf,
			"out of dictionary range",
		},
		{
			"entries out of order",
			newRawBatch(rs[0], 1, false, rs[:2]).sections(1).section("P1", 1, 1, 0).buf,
			"canonical order",
		},
		{
			"repeated entry index",
			newRawBatch(rs[0], 1, false, rs[:1]).sections(1).section("P1", 1, 0, 0).buf,
			"canonical order",
		},
		{
			"hops overflow",
			newRawBatch(rs[0], 1<<40, false, rs[:1]).sections(1).section("P1", 1, 0).buf,
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
