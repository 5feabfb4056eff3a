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

// carried returns a copy of the algebra a CDM or BatchSection carries.
func carried(m interface{ MergeAlgInto(core.Alg) (bool, bool) }) core.Alg {
	a := core.NewAlg()
	m.MergeAlgInto(a)
	return a
}

// testAlg builds an algebra from (reference, entry) pairs.
func testAlg(es map[ids.RefID]core.Entry) core.Alg {
	a := core.NewAlg()
	for r, e := range es {
		a.Set(r, e)
	}
	return a
}

func TestRoundTripAllKinds(t *testing.T) {
	g1 := ids.GlobalRef{Node: "P2", Obj: 6}
	g2 := ids.GlobalRef{Node: "P4", Obj: 17}
	r1 := ids.RefID{Src: "P1", Dst: g1}
	r2 := ids.RefID{Src: "P2", Dst: g2}
	det := core.DetectionID{Origin: "P2", Seq: 9}

	msgs := []Message{
		&InvokeRequest{CallID: 3, Obj: g1.Obj, Method: "store", Args: []ids.GlobalRef{g2}, StubIC: 7},
		&InvokeRequest{CallID: 4, Obj: 300}, // empty args
		&InvokeReply{CallID: 3, OK: true, Returns: []ids.GlobalRef{g1, g2}, ScionIC: 8},
		&InvokeReply{CallID: 3, OK: false, Err: "no such method"},
		&CreateScion{ExportID: 5, Holder: "P3", Objs: []ids.ObjID{6}},
		&CreateScion{ExportID: 6, Holder: "P3", Objs: []ids.ObjID{6, 300, 6}},
		&CreateScionAck{Acks: []ExportAck{{ExportID: 5}}},
		&CreateScionAck{Acks: []ExportAck{{ExportID: 5, Err: "no such object"}}},
		&CreateScionAck{Acks: []ExportAck{{ExportID: 300}, {ExportID: 5}, {ExportID: 7, Err: "no such object"}}},
		&NewSetStubs{Seq: 12, Objs: []ids.ObjID{1, 5, 9}},
		&NewSetStubs{Seq: 13},
		NewCDMFromAlg(det, r2, testAlg(map[ids.RefID]core.Entry{
			r1: {InSource: true, SrcIC: 2},
			r2: {InSource: true, SrcIC: 1, InTarget: true, TgtIC: 1},
		}), 3, 0),
		&Credit{Consumed: 300},
		&Gossip{Members: []MemberRecord{
			{Node: "P1", Addr: "10.0.0.1:7001", Incarnation: 3, State: 2},
			{Node: "P2", Incarnation: 0, State: 5},
		}},
		&Gossip{Ack: true},
		&LeaseHandoff{Objs: []ids.ObjID{2, 7, 9}},
		&LeaseHandoff{},
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
	// 7 (DeleteScion), 8–11 (the baseline collectors') and 12 (Batch) are
	// retired kinds: pinned gaps that no frame may use again.
	for _, k := range []byte{0, 7, 8, 9, 10, 11, 12, 17, 0xEE} {
		if _, err := Decode([]byte{k}); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("Decode(kind %d) = %v, want unknown kind", k, err)
		}
	}
	// Truncations of a valid message must all fail.
	data := Encode(&InvokeRequest{CallID: 3, Obj: 6, Method: "m"})
	for cut := 1; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing garbage must fail.
	if _, err := Decode(append(append([]byte{}, data...), 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// An entry count the remaining bytes cannot hold is refused before the
	// decoder sizes an algebra for it.
	cdm := refCDM(core.DetectionID{Origin: "P1"}, ids.RefID{}, 0, nil, nil)
	cdm = append(cdm[:len(cdm)-1], make([]byte, 21)...)
	cdm[len(cdm)-21] = 20
	if _, err := Decode(cdm); err == nil || !strings.Contains(err.Error(), "implausible entry count") {
		t.Errorf("CDM claiming 20 entries in 20 bytes: err = %v", err)
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
	msg := NewCDMFromAlg(det, r2, alg, 5, 0)
	if back := carried(msg); !back.Equal(alg) {
		t.Fatalf("in-process merge: %v vs %v", back, alg)
	}
	got := roundTrip(t, msg).(*CDM)
	if back := carried(got); !back.Equal(alg) {
		t.Fatalf("decoded merge: %v vs %v", back, alg)
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
		msg := NewCDMFromAlg(core.DetectionID{Origin: "X", Seq: 1}, ids.RefID{}, alg, 0, 0)
		got, err := Decode(Encode(msg))
		if err != nil {
			return false
		}
		return carried(got.(*CDM)).Equal(alg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refCDM hand-encodes a CDM whose entries are written in exactly the order
// keys gives them: the reference the codec's bytes are pinned to, and the
// way to express entry orders the encoder never produces.
func refCDM(det core.DetectionID, along ids.RefID, hops uint64, keys []ids.RefID, es map[ids.RefID]core.Entry) []byte {
	buf := []byte{byte(KindCDM)}
	buf = putNode(buf, det.Origin)
	buf = putUint(buf, det.Seq)
	buf = putRefID(buf, along)
	buf = putUint(buf, hops)
	buf = putUint(buf, uint64(len(keys)))
	for _, r := range keys {
		e := es[r]
		buf = putRefID(buf, r)
		buf = putBool(buf, e.InSource)
		buf = putUint(buf, e.SrcIC)
		buf = putBool(buf, e.InTarget)
		buf = putUint(buf, e.TgtIC)
	}
	return buf
}

// nonCanonicalCDMs returns a canonical CDM encoding and, by name, the same
// CDM with its entries out of order and with one entry repeated.
func nonCanonicalCDMs() (valid []byte, bad map[string][]byte) {
	det := core.DetectionID{Origin: "P2", Seq: 9}
	r1 := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 6}}
	r2 := ids.RefID{Src: "P2", Dst: ids.GlobalRef{Node: "P4", Obj: 17}}
	es := map[ids.RefID]core.Entry{r1: {InSource: true, SrcIC: 2}, r2: {InTarget: true, TgtIC: 1}}
	return refCDM(det, r2, 1, []ids.RefID{r1, r2}, es), map[string][]byte{
		"cdm-unsorted-entries": refCDM(det, r2, 1, []ids.RefID{r2, r1}, es),
		"cdm-duplicate-entry":  refCDM(det, r2, 1, []ids.RefID{r1, r1}, es),
	}
}

// TestCDMDecodeRejectsNonCanonicalEntries: a CDM's entries must arrive
// strictly ascending in RefID.Less order, the order the encoder writes, so a
// reordered or repeated entry is refused.
func TestCDMDecodeRejectsNonCanonicalEntries(t *testing.T) {
	valid, bad := nonCanonicalCDMs()
	if _, err := Decode(valid); err != nil {
		t.Fatalf("canonical CDM rejected: %v", err)
	}
	for name, data := range bad {
		_, err := Decode(data)
		if err == nil || !strings.Contains(err.Error(), "canonical order") {
			t.Errorf("%s: err = %v, want a canonical-order rejection", name, err)
		}
	}
}

// TestExportMessagesRejectMalformed: a CreateScion names at least one
// object, and a CreateScionAck at least one export and none twice. Decode
// refuses any other, so the owner never builds one (Machine.ackExport).
func TestExportMessagesRejectMalformed(t *testing.T) {
	ack := func(exports ...uint64) *CreateScionAck {
		m := &CreateScionAck{}
		for _, id := range exports {
			m.Acks = append(m.Acks, ExportAck{ExportID: id})
		}
		return m
	}
	for name, c := range map[string]struct {
		m    Message
		want string
	}{
		"no objects":        {&CreateScion{ExportID: 5, Holder: "P3"}, "no objects"},
		"no exports":        {ack(), "no exports"},
		"adjacent repeat":   {ack(4, 4), "repeats an export"},
		"unordered repeat":  {ack(5, 7, 5), "repeats an export"},
		"repeat after drop": {ack(9, 2, 3, 2), "repeats an export"},
	} {
		if _, err := Decode(Encode(c.m)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
	}
	// Unordered but distinct ids, as a reordering link delivers them.
	if _, err := Decode(Encode(ack(7, 3, 5))); err != nil {
		t.Errorf("unordered distinct ids rejected: %v", err)
	}
	// Counts the remaining bytes cannot hold are refused before the decoder
	// sizes a list for them.
	data := putUint([]byte{byte(KindCreateScionAck)}, 3)
	if _, err := Decode(append(data, 1, 0)); err == nil || !strings.Contains(err.Error(), "implausible ack count") {
		t.Errorf("ack claiming 3 entries in 2 bytes: err = %v", err)
	}
	data = putUint(putNode(putUint([]byte{byte(KindCreateScion)}, 5), "P3"), 6)
	if _, err := Decode(append(data, 1, 2)); err == nil || !strings.Contains(err.Error(), "implausible object count") {
		t.Errorf("CreateScion claiming 6 objects in 2 bytes: err = %v", err)
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
// dense algebra's NewCDMFromAlg and by hand from a parallel map (the retired
// representation, refCDM) — and requires byte-identical encodings. Together with
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

		// Reference flattening: sorted map keys, exactly as the retired
		// map-based encoder did it.
		keys := make([]ids.RefID, 0, len(mirror))
		for r := range mirror {
			keys = append(keys, r)
		}
		ids.SortRefIDs(keys)
		want := refCDM(det, along, 3, keys, mirror)

		msg := NewCDMFromAlg(det, along, alg, 3, 0)
		if got := Encode(msg); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: wire bytes differ\n got %x\nwant %x", seed, got, want)
		}
		if n := EncodedSize(msg); n != len(want) {
			t.Fatalf("seed %d: EncodedSize = %d, want %d", seed, n, len(want))
		}
		dec, err := Decode(want)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !carried(dec.(*CDM)).Equal(alg) {
			t.Fatalf("seed %d: decoded algebra mismatch", seed)
		}

		// The batched form assigns dictionary indices by one rank-keyed
		// sort that must reproduce canonical order; a decode that accepts
		// the bytes and yields the same algebra proves it did.
		if alg.Len() == 0 {
			continue // the decoder rejects empty sections by design
		}
		batch := NewBatchCDM(3, false, []BatchSection{NewBatchSection(det, along, alg)})
		dec, err = Decode(Encode(batch))
		if err != nil {
			t.Fatalf("seed %d: batch decode: %v", seed, err)
		}
		if !carried(&dec.(*BatchCDM).Sections[0]).Equal(alg) {
			t.Fatalf("seed %d: batch section Alg() mismatch", seed)
		}
	}
}

func TestEncodedSizeAndAppendEncode(t *testing.T) {
	r1 := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 6}}
	msgs := []Message{
		&InvokeRequest{CallID: 300, Obj: 700, Method: "store", Args: []ids.GlobalRef{r1.Dst}, StubIC: 300},
		&InvokeReply{CallID: 300, OK: true, Returns: []ids.GlobalRef{r1.Dst}, ScionIC: 300},
		&CreateScionAck{Acks: []ExportAck{{ExportID: 42}, {ExportID: 300, Err: "no such object"}}},
		&NewSetStubs{Seq: 300, Objs: []ids.ObjID{2, 700}},
		&Credit{Consumed: 300},
		&CreateScion{ExportID: 5, Holder: "P3", Objs: []ids.ObjID{r1.Dst.Obj}},
		&Gossip{Ack: true, Members: []MemberRecord{{Node: "P1", Addr: "h:1", Incarnation: 300, State: 2}}},
		&LeaseHandoff{Objs: []ids.ObjID{2, 700}},
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
		alg := core.NewAlg()
		for i, n := 0, rng.Intn(6); i < n; i++ {
			alg.Set(randRefID(rng), core.Entry{
				InSource: rng.Intn(2) == 0,
				SrcIC:    randUint(rng),
				InTarget: rng.Intn(2) == 0,
				TgtIC:    randUint(rng),
			})
		}
		m := &CDM{
			Det:   core.DetectionID{Origin: ids.NodeID(randName(rng)), Seq: randUint(rng)},
			Along: randRefID(rng),
			Hops:  uint32(randUint(rng)),
			alg:   alg,
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

// knownKinds returns every Kind that String has a name for, walking the
// whole byte range so a kind past a gap in the numbering is seen too.
func knownKinds() []Kind {
	var out []Kind
	for k := Kind(1); k != 0; k++ {
		if !strings.HasPrefix(k.String(), "Kind(") {
			out = append(out, k)
		}
	}
	return out
}

// TestKindNumbers pins every kind's byte value: the numbers are the wire
// format, so deleting a kind must leave a gap, never shift its successors
// (7–12 are gaps: String and Decode know no kind there).
func TestKindNumbers(t *testing.T) {
	want := map[Kind]byte{
		KindInvokeRequest:  1,
		KindInvokeReply:    2,
		KindCreateScion:    3,
		KindCreateScionAck: 4,
		KindNewSetStubs:    5,
		KindCDM:            6,
		KindCredit:         13,
		KindBatchCDM:       14,
		KindGossip:         15,
		KindLeaseHandoff:   16,
	}
	for k, b := range want {
		if byte(k) != b {
			t.Errorf("%s = %d, want %d", k, byte(k), b)
		}
	}
	if got := knownKinds(); len(got) != len(want) {
		t.Errorf("String knows %d kinds %v, the table pins %d", len(got), got, len(want))
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range knownKinds() {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("Kind(%d).String() = %q", k, s)
		}
	}
	for _, k := range []Kind{7, 8, 11, 12, 200} {
		if want := fmt.Sprintf("Kind(%d)", k); k.String() != want {
			t.Errorf("unknown kind string = %q, want %q", k.String(), want)
		}
	}
}

// TestEveryKindIsClassified fails when a kind is added without deciding
// whose traffic it is: the fault injectors and the experiments' message
// counts are built from CollectorKinds, and a kind missing from it is
// silently never dropped, duplicated, reordered or counted (KindBatchCDM was,
// for one PR).
func TestEveryKindIsClassified(t *testing.T) {
	class := map[Kind]string{
		KindInvokeRequest:  "mutator",
		KindInvokeReply:    "mutator",
		KindCreateScion:    "mutator",
		KindCreateScionAck: "mutator",
		KindNewSetStubs:    "collector",
		KindCDM:            "collector",
		KindBatchCDM:       "collector",
		KindGossip:         "membership",
		KindLeaseHandoff:   "membership",
		KindCredit:         "framing",
	}
	collector := make(map[Kind]bool)
	for _, k := range CollectorKinds() {
		collector[k] = true
	}
	for _, k := range knownKinds() {
		c, ok := class[k]
		if !ok {
			t.Errorf("%s is not classified: add it here, and to CollectorKinds if it is collector traffic", k)
		}
		if (c == "collector") != collector[k] {
			t.Errorf("%s is classified %q but CollectorKinds has it = %v", k, c, collector[k])
		}
	}
}
