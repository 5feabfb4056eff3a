package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data := Encode(m)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%s): %v", m.Kind(), err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind mismatch: %s vs %s", got.Kind(), m.Kind())
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	g1 := ids.GlobalRef{Node: "P2", Obj: 6}
	g2 := ids.GlobalRef{Node: "P4", Obj: 17}
	r1 := ids.RefID{Src: "P1", Dst: g1}
	r2 := ids.RefID{Src: "P2", Dst: g2}
	det := core.DetectionID{Origin: "P2", Seq: 9}

	msgs := []Message{
		&InvokeRequest{CallID: 3, From: "P1", Target: g1, Method: "store", Args: []ids.GlobalRef{g2}, StubIC: 7},
		&InvokeRequest{CallID: 4, From: "P1", Target: g1}, // empty args
		&InvokeReply{CallID: 3, From: "P2", Target: g1, OK: true, Returns: []ids.GlobalRef{g1, g2}, ScionIC: 8},
		&InvokeReply{CallID: 3, From: "P2", Target: g1, OK: false, Err: "no such method"},
		&CreateScion{ExportID: 5, From: "P1", Holder: "P3", Obj: 6},
		&CreateScionAck{ExportID: 5, From: "P2", OK: true},
		&CreateScionAck{ExportID: 5, From: "P2", OK: false, Err: "no such object"},
		&NewSetStubs{Set: refs.StubSetMsg{From: "P1", Seq: 12, Objs: []ids.ObjID{1, 5, 9}}},
		&NewSetStubs{Set: refs.StubSetMsg{From: "P1", Seq: 13}},
		&CDM{Det: det, Along: r2, Hops: 3, Trace: 0xfeedface12345678, Entries: []CDMEntry{
			{Ref: r1, InSource: true, SrcIC: 2},
			{Ref: r2, InSource: true, SrcIC: 1, InTarget: true, TgtIC: 1},
		}},
		&DeleteScion{Det: det, Ref: r1},
		&HughesStamp{From: "P1", Stamp: 77, Objs: []ids.ObjID{2, 3}},
		&HughesThreshold{Threshold: 42},
		&BacktraceRequest{TraceID: 1, Origin: "P1", From: "P3", Obj: 4, Visited: []ids.RefID{r1, r2}},
		&BacktraceReply{TraceID: 1, From: "P2", Obj: 4, RootFound: true},
		&Batch{Msgs: []Message{
			&HughesThreshold{Threshold: 42},
			&DeleteScion{Det: det, Ref: r1},
		}},
		&Batch{},
		&Gossip{Members: []MemberRecord{
			{Node: "P1", Addr: "10.0.0.1:7001", Incarnation: 3, State: 2},
			{Node: "P2", Incarnation: 0, State: 5},
		}},
		&Gossip{Ack: true},
		&LeaseHandoff{Holder: "P3", Objs: []ids.ObjID{2, 7, 9}},
		&LeaseHandoff{Holder: "P3"},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s round trip mismatch:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) should fail")
	}
	if _, err := Decode([]byte{0xEE}); err == nil {
		t.Error("Decode(unknown kind) should fail")
	}
	// Truncations of a valid message must all fail.
	data := Encode(&InvokeRequest{CallID: 3, From: "P1", Target: ids.GlobalRef{Node: "P2", Obj: 6}, Method: "m"})
	for cut := 1; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing garbage must fail.
	if _, err := Decode(append(append([]byte{}, data...), 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestCDMAlgConversion(t *testing.T) {
	alg := core.NewAlg()
	r1 := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 1}}
	r2 := ids.RefID{Src: "P2", Dst: ids.GlobalRef{Node: "P4", Obj: 2}}
	alg.AddSource(r1, 5)
	alg.AddTarget(r2, 3)
	alg.AddSource(r2, 3)

	det := core.DetectionID{Origin: "P2", Seq: 1}
	msg := NewCDM(det, r2, alg, 5)
	if len(msg.Entries) != 2 {
		t.Fatalf("entries = %d", len(msg.Entries))
	}
	// Canonical order: r1 < r2.
	if msg.Entries[0].Ref != r1 || msg.Entries[1].Ref != r2 {
		t.Fatalf("entry order: %v, %v", msg.Entries[0].Ref, msg.Entries[1].Ref)
	}
	back := msg.Alg()
	if !back.Equal(alg) {
		t.Fatalf("Alg round trip: %v vs %v", back, alg)
	}
}

func TestCDMAlgConversionProperty(t *testing.T) {
	f := func(srcBits, tgtBits uint8, icSeed uint8) bool {
		alg := core.NewAlg()
		for i := 0; i < 8; i++ {
			r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
			if srcBits&(1<<i) != 0 {
				alg.AddSource(r, uint64(icSeed)+uint64(i))
			}
			if tgtBits&(1<<i) != 0 {
				alg.AddTarget(r, uint64(icSeed)*2+uint64(i))
			}
		}
		msg := NewCDM(core.DetectionID{Origin: "X", Seq: 1}, ids.RefID{}, alg, 0)
		data := Encode(msg)
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return got.(*CDM).Alg().Equal(alg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	inner := Encode(&Batch{Msgs: []Message{&HughesThreshold{Threshold: 1}}})
	data := []byte{byte(KindBatch), 1}
	data = putUint(data, uint64(len(inner)))
	data = append(data, inner...)
	if _, err := Decode(data); err == nil {
		t.Fatal("nested batch accepted")
	}
	// Empty sub-message must also be rejected.
	data = []byte{byte(KindBatch), 1, 0}
	if _, err := Decode(data); err == nil {
		t.Fatal("empty batch element accepted")
	}
}

// nodeUniverses returns three five-name sets and forces this process's first
// sight of each set's names — which fixes their node-table indices — in
// lexical, reverse-lexical and shuffled order. Index order agrees with name
// order in the first only, so wire output derived from index order instead
// of name order fails on the other two.
func nodeUniverses() map[string][5]ids.NodeID {
	out := map[string][5]ids.NodeID{}
	for order, perm := range map[string][5]int{
		"lexical":  {0, 1, 2, 3, 4},
		"reversed": {4, 3, 2, 1, 0},
		"shuffled": {2, 4, 0, 3, 1},
	} {
		var u [5]ids.NodeID
		for i := range u {
			u[i] = ids.NodeID(fmt.Sprintf("%s-P%d", order, i+1))
		}
		first := core.NewAlg()
		for _, i := range perm {
			first.AddSource(ids.RefID{Src: u[i], Dst: ids.GlobalRef{Node: u[i]}}, 0)
		}
		out[order] = u
	}
	return out
}

// TestNewCDMBytesMatchReference builds the wire CDM two ways — through the
// dense algebra's NewCDM and by hand from a parallel map (the retired
// representation) — and requires byte-identical encodings. Together with
// core's algReference property tests this pins the algebra's wire output to
// the map implementation's.
func TestNewCDMBytesMatchReference(t *testing.T) {
	for order, u := range nodeUniverses() {
		t.Run(order, func(t *testing.T) { testNewCDMBytesMatchReference(t, u) })
	}
}

func testNewCDMBytesMatchReference(t *testing.T, u [5]ids.NodeID) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alg := core.NewAlg()
		mirror := map[ids.RefID]core.Entry{}
		n := rng.Intn(12)
		for i := 0; i < n; i++ {
			r := ids.RefID{
				Src: u[rng.Intn(3)],
				Dst: ids.GlobalRef{Node: u[2+rng.Intn(3)], Obj: ids.ObjID(rng.Intn(6))},
			}
			if rng.Intn(2) == 0 {
				alg.AddSource(r, uint64(rng.Intn(4)))
			}
			if rng.Intn(2) == 0 {
				alg.AddTarget(r, uint64(rng.Intn(4)))
			}
			if e, ok := alg.Get(r); ok {
				mirror[r] = e
			}
		}
		det := core.DetectionID{Origin: "P2", Seq: uint64(seed)}
		along := ids.RefID{Src: u[4], Dst: ids.GlobalRef{Node: u[0], Obj: 1}}
		tr := core.TraceIDFor(det)
		eager := NewCDM(det, along, alg, 3)
		eager.Trace = tr
		got := Encode(eager)

		// Reference flattening: sorted map keys, exactly as the retired
		// map-based NewCDM did it.
		keys := make([]ids.RefID, 0, len(mirror))
		for r := range mirror {
			keys = append(keys, r)
		}
		ids.SortRefIDs(keys)
		ref := &CDM{Det: det, Along: along, Hops: 3, Trace: tr}
		for _, r := range keys {
			e := mirror[r]
			ref.Entries = append(ref.Entries, CDMEntry{
				Ref: r, InSource: e.InSource, SrcIC: e.SrcIC, InTarget: e.InTarget, TgtIC: e.TgtIC,
			})
		}
		want := Encode(ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: wire bytes differ\n got %x\nwant %x", seed, got, want)
		}

		// The lazily-flattened constructor (what the detector fan-out sends)
		// must produce the same bytes and the same size as the eager path.
		lazy := NewCDMFromAlg(det, along, alg, 3, tr)
		if lb := Encode(lazy); !bytes.Equal(lb, want) {
			t.Fatalf("seed %d: lazy wire bytes differ\n got %x\nwant %x", seed, lb, want)
		}
		if n := EncodedSize(lazy); n != len(want) {
			t.Fatalf("seed %d: lazy EncodedSize = %d, want %d", seed, n, len(want))
		}
		if !lazy.Alg().Equal(alg) {
			t.Fatalf("seed %d: lazy Alg() mismatch", seed)
		}

		// The batched form assigns dictionary indices by a merge walk that
		// relies on canonical section order; a decode that accepts the bytes
		// and yields the same algebra proves the walk held.
		if alg.Len() == 0 {
			continue // the decoder rejects empty sections by design
		}
		batch := NewBatchCDM(along, 3, false, []BatchSection{NewBatchSection(det, tr, alg)})
		dec, err := Decode(Encode(batch))
		if err != nil {
			t.Fatalf("seed %d: batch decode: %v", seed, err)
		}
		if !dec.(*BatchCDM).Sections[0].Alg().Equal(alg) {
			t.Fatalf("seed %d: batch section Alg() mismatch", seed)
		}
	}
}

func TestEncodedSizeAndAppendEncode(t *testing.T) {
	det := core.DetectionID{Origin: "P2", Seq: 9}
	r1 := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 6}}
	msgs := []Message{
		&HughesThreshold{Threshold: 42},
		&DeleteScion{Det: det, Ref: r1},
		&Batch{Msgs: []Message{&DeleteScion{Det: det, Ref: r1}}},
		&Gossip{Ack: true, Members: []MemberRecord{{Node: "P1", Addr: "h:1", Incarnation: 300, State: 2}}},
		&LeaseHandoff{Holder: "P3", Objs: []ids.ObjID{2, 700}},
	}
	for _, m := range msgs {
		data := Encode(m)
		if n := EncodedSize(m); n != len(data) {
			t.Errorf("%s: EncodedSize = %d, len(Encode) = %d", m.Kind(), n, len(data))
		}
		prefix := []byte{0xAB, 0xCD}
		app := AppendEncode(append([]byte{}, prefix...), m)
		if !bytes.Equal(app[:2], prefix) || !bytes.Equal(app[2:], data) {
			t.Errorf("%s: AppendEncode mismatch", m.Kind())
		}
	}

	// The CDM answers EncodedSize analytically: sweep values across varint
	// width boundaries and verify against the real encoder.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		m := &CDM{
			Det:   core.DetectionID{Origin: ids.NodeID(randName(rng)), Seq: randUint(rng)},
			Along: randRefID(rng),
			Hops:  uint32(randUint(rng)),
			Trace: randUint(rng),
		}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			m.Entries = append(m.Entries, CDMEntry{
				Ref:      randRefID(rng),
				InSource: rng.Intn(2) == 0,
				SrcIC:    randUint(rng),
				InTarget: rng.Intn(2) == 0,
				TgtIC:    randUint(rng),
			})
		}
		if n, data := EncodedSize(m), Encode(m); n != len(data) {
			t.Fatalf("trial %d: CDM EncodedSize = %d, len(Encode) = %d", trial, n, len(data))
		}
	}
}

func randName(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte('A' + rng.Intn(26))
	}
	return string(b)
}

func randUint(rng *rand.Rand) uint64 {
	// Bias across varint widths: a random bit length, then a random value.
	return rng.Uint64() >> uint(rng.Intn(64))
}

func randRefID(rng *rand.Rand) ids.RefID {
	return ids.RefID{
		Src: ids.NodeID(randName(rng)),
		Dst: ids.GlobalRef{Node: ids.NodeID(randName(rng)), Obj: ids.ObjID(randUint(rng))},
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindInvokeRequest; k <= KindLeaseHandoff; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("Kind(%d).String() = %q", k, s)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("unknown kind string = %q", Kind(200).String())
	}
}

// TestEveryKindIsClassified fails when a kind is added without deciding
// whose traffic it is: the fault injectors and the experiments' message
// counts are built from CollectorKinds, and a kind missing from it is
// silently never dropped, duplicated, reordered or counted (KindBatchCDM was,
// for one PR).
func TestEveryKindIsClassified(t *testing.T) {
	class := map[Kind]string{
		KindInvokeRequest:    "mutator",
		KindInvokeReply:      "mutator",
		KindCreateScion:      "mutator",
		KindCreateScionAck:   "mutator",
		KindNewSetStubs:      "collector",
		KindCDM:              "collector",
		KindDeleteScion:      "collector",
		KindBatchCDM:         "collector",
		KindHughesStamp:      "baseline",
		KindHughesThreshold:  "baseline",
		KindBacktraceRequest: "baseline",
		KindBacktraceReply:   "baseline",
		KindGossip:           "membership",
		KindLeaseHandoff:     "membership",
		KindBatch:            "framing",
		KindCredit:           "framing",
	}
	collector := make(map[Kind]bool)
	for _, k := range CollectorKinds() {
		collector[k] = true
	}
	// Walk the enum until String stops knowing the value, so a kind appended
	// after KindLeaseHandoff is seen too.
	for k := Kind(1); !strings.HasPrefix(k.String(), "Kind("); k++ {
		c, ok := class[k]
		if !ok {
			t.Errorf("%s is not classified: add it here, and to CollectorKinds if it is collector traffic", k)
		}
		if (c == "collector") != collector[k] {
			t.Errorf("%s is classified %q but CollectorKinds has it = %v", k, c, collector[k])
		}
	}
}
