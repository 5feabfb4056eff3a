package wire

import (
	"reflect"
	"testing"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

// FuzzDecode hardens the wire decoder against arbitrary input: it must
// never panic, and whatever it accepts must re-encode to the exact same
// bytes (canonical form) and decode again to an equal message.
func FuzzDecode(f *testing.F) {
	// Seed with one encoding of every message kind.
	g1 := ids.GlobalRef{Node: "P2", Obj: 6}
	r1 := ids.RefID{Src: "P1", Dst: g1}
	seeds := []Message{
		&InvokeRequest{CallID: 3, From: "P1", Target: g1, Method: "store", Args: []ids.GlobalRef{g1}, StubIC: 7},
		&InvokeReply{CallID: 3, From: "P2", Target: g1, OK: true, Returns: []ids.GlobalRef{g1}},
		&CreateScion{ExportID: 5, From: "P1", Holder: "P3", Obj: 6},
		&CreateScionAck{ExportID: 5, From: "P2", OK: true},
		&NewSetStubs{Set: refs.StubSetMsg{From: "P1", Seq: 12, Objs: []ids.ObjID{1, 5}}},
		&CDM{Det: core.DetectionID{Origin: "P2", Seq: 9}, Along: r1, Hops: 2,
			Entries: []CDMEntry{{Ref: r1, InSource: true, SrcIC: 2, InTarget: true, TgtIC: 2}}},
		&DeleteScion{Det: core.DetectionID{Origin: "P2", Seq: 9}, Ref: r1},
		&HughesStamp{From: "P1", Stamp: 77, Objs: []ids.ObjID{2}},
		&HughesThreshold{Threshold: 42},
		&BacktraceRequest{TraceID: 1, Origin: "P1", From: "P3", Obj: 4, Visited: []ids.RefID{r1}},
		&BacktraceReply{TraceID: 1, From: "P2", Obj: 4, RootFound: true},
		&Credit{Consumed: 300},
		&Batch{Msgs: []Message{
			&HughesThreshold{Threshold: 42},
			&CDM{Det: core.DetectionID{Origin: "P2", Seq: 9}, Along: r1, Hops: 2,
				Entries: []CDMEntry{{Ref: r1, InSource: true, SrcIC: 2}}},
		}},
		&Batch{},
		testBatch(false),
		testBatch(true),
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		re := Encode(m)
		if !reflect.DeepEqual(re, data) {
			t.Fatalf("accepted non-canonical encoding:\n in  %x\n out %x", data, re)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode not stable: %#v vs %#v", m, m2)
		}
	})
}
