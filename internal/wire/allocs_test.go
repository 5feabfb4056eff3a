package wire

import (
	"runtime"
	"testing"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// disjointSections builds n sections shaped like a ring workload's batched
// hop: three references per section, none shared between sections, all
// travelling from P1 into P2.
func disjointSections(n int) []BatchSection {
	secs := make([]BatchSection, n)
	for i := range secs {
		obj := ids.ObjID(i)
		along := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: obj}}
		a := core.NewAlg()
		a.AddSource(ids.RefID{Src: "P3", Dst: ids.GlobalRef{Node: "P1", Obj: obj}}, 1)
		a.AddTarget(along, 1)
		a.AddSource(ids.RefID{Src: "P2", Dst: ids.GlobalRef{Node: "P3", Obj: obj}}, 1)
		secs[i] = NewBatchSection(core.DetectionID{Origin: "P1", Seq: uint64(i + 1)}, along, a)
	}
	return secs
}

// TestCodecAllocsPinned is a cost gate that host noise cannot trip: the
// allocations of building, encoding into a reused buffer and decoding the
// two detection messages and an export ack, pinned exactly. An increase is
// a regression; a decrease must lower the pin in the same change. A decoded
// batch's bytes are held under a ceiling too: the decoder sizes its one
// entry array from a bound, and a loose bound shows as bytes, not
// allocations.
func TestCodecAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	alg := core.NewAlg()
	for i := 0; i < 8; i++ {
		r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
		alg.AddSource(r, uint64(i))
		alg.AddTarget(r, uint64(i))
	}
	det := core.DetectionID{Origin: "P1", Seq: 9}
	cdm := NewCDMFromAlg(det, ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 1}}, alg, 3, 0)
	secs := disjointSections(32)
	batch := NewBatchCDM(3, false, secs)
	// An owner's answer to 31 exports in one flush, as a ring workload's
	// holder receives it.
	ack := &CreateScionAck{}
	for i := 0; i < 31; i++ {
		ack.Acks = append(ack.Acks, ExportAck{ExportID: uint64(1000 + i)})
	}
	buf := make([]byte, 0, 8192)
	cdmData, batchData, ackData := Encode(cdm), Encode(batch), Encode(ack)

	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"CDM/encode", 0, func() { buf = AppendEncode(buf[:0], cdm) }},
		{"CDM/decode", 3, func() { _, _ = Decode(cdmData) }},
		{"BatchCDM/build", 6, func() { _ = NewBatchCDM(3, false, secs) }},
		{"BatchCDM/encode", 0, func() { buf = AppendEncode(buf[:0], batch) }},
		{"BatchCDM/decode", 6, func() { _, _ = Decode(batchData) }},
		{"CreateScionAck/encode", 0, func() { buf = AppendEncode(buf[:0], ack) }},
		{"CreateScionAck/decode", 2, func() { _, _ = Decode(ackData) }}, // the message and its entry list
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocs, pinned at %v", c.name, got, c.want)
		}
	}
	if got := bytesPerRun(100, func() { _, _ = Decode(batchData) }); got > 13496 {
		t.Errorf("BatchCDM/decode: %d B/op, ceiling 13496", got)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes one
// call of f allocates, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
