package wire

import (
	"reflect"
	"testing"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// FuzzDecode hardens the wire decoder against arbitrary input: it must
// never panic, and whatever it accepts must re-encode to the exact same
// bytes (canonical form) and decode again to an equal message.
func FuzzDecode(f *testing.F) {
	// Seed with one encoding of every message kind.
	g1 := ids.GlobalRef{Node: "P2", Obj: 6}
	r1 := ids.RefID{Src: "P1", Dst: g1}
	r2 := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P3", Obj: 1}}
	r3 := ids.RefID{Src: "P2", Dst: ids.GlobalRef{Node: "P1", Obj: 4}}
	det := core.DetectionID{Origin: "P2", Seq: 9}
	seeds := []Message{
		&InvokeRequest{CallID: 3, Obj: g1.Obj, Method: "store", Args: []ids.GlobalRef{g1}, StubIC: 7},
		&InvokeReply{CallID: 3, OK: true, Returns: []ids.GlobalRef{g1}},
		&CreateScion{ExportID: 5, Holder: "P3", Objs: []ids.ObjID{6}},
		&CreateScion{ExportID: 6, Holder: "P3", Objs: []ids.ObjID{6, 2, 6}},
		&CreateScionAck{Acks: []ExportAck{{ExportID: 5}}},
		&CreateScionAck{Acks: []ExportAck{{ExportID: 5}, {ExportID: 9, Err: "no such object"}, {ExportID: 7}}},
		&NewSetStubs{Seq: 12, Objs: []ids.ObjID{1, 5}},
		NewCDMFromAlg(det, r1, testAlg(map[ids.RefID]core.Entry{
			r1: {InSource: true, SrcIC: 2, InTarget: true, TgtIC: 2},
		}), 2, 0),
		NewCDMFromAlg(det, r1, testAlg(map[ids.RefID]core.Entry{
			r1: {InSource: true, SrcIC: 2},
			r2: {InTarget: true, TgtIC: 1},
			r3: {InSource: true, InTarget: true},
		}), 3, 0),
		&Credit{Consumed: 300},
		testBatch(false), // sections along three references, one detection along two
		testBatch(true),
		&Gossip{Members: []MemberRecord{{Node: "P1", Addr: "h:1", Incarnation: 3, State: 2}}},
		&LeaseHandoff{Objs: []ids.ObjID{2, 7}},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	// A frame in the layout of the retired kind 7 (DeleteScion: detection
	// id, then a RefID), which Decode must reject.
	f.Add(putRefID(putUint(putNode([]byte{7}, det.Origin), det.Seq), r1))
	// A frame in the layout of the retired kind 12 (Batch: a count, then
	// length-prefixed messages), which Decode must reject too.
	ack := Encode(&CreateScionAck{Acks: []ExportAck{{ExportID: 42}}})
	f.Add(append(putUint([]byte{12, 1}, uint64(len(ack))), ack...))
	// Export messages Decode must reject: a CreateScion with no objects, and
	// acks with no entry or with one export named twice.
	for _, m := range []Message{
		&CreateScion{ExportID: 5, Holder: "P3"},
		&CreateScionAck{},
		&CreateScionAck{Acks: []ExportAck{{ExportID: 4}, {ExportID: 4}}},
		&CreateScionAck{Acks: []ExportAck{{ExportID: 5}, {ExportID: 7}, {ExportID: 5}}},
	} {
		f.Add(Encode(m))
	}

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
