package experiments

import (
	"fmt"
	"runtime"
	"time"

	"dgc/internal/cluster"
	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/wire"
	"dgc/internal/workload"
)

// DetectRow is one cell of the detection-round scaling measurement: a full
// DCDA collection of a `procs`-process garbage ring, the workload whose cost
// is dominated by CDM derivation (algebra clone/merge/match) and CDM
// encoding.
type DetectRow struct {
	Procs    int           `json:"procs"`
	Wall     time.Duration `json:"wall_ns"`
	CDMsSent uint64        `json:"cdms_sent"`
	Allocs   uint64        `json:"allocs"`
	Rounds   int           `json:"rounds"`
}

// DetectRoundScale measures full ring collections across process counts.
// Each cell reports the best wall time of reps runs and the allocation count
// of that run (runtime.Mallocs delta, single-threaded schedule).
func DetectRoundScale(procSizes []int, reps int) ([]DetectRow, error) {
	if reps < 1 {
		reps = 1
	}
	rows := make([]DetectRow, 0, len(procSizes))
	for _, procs := range procSizes {
		var best DetectRow
		for r := 0; r < reps; r++ {
			cfg := node.Config{}
			c := cluster.New(1, cfg)
			if _, err := c.Materialize(workload.Ring(procs, 2), cfg); err != nil {
				return nil, err
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			rounds := 0
			for c.TotalObjects() > 0 && rounds < procs*3+10 {
				c.GCRound()
				rounds++
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if c.TotalObjects() != 0 {
				return nil, fmt.Errorf("experiments: ring %d not collected", procs)
			}
			var cdms uint64
			for _, s := range c.Stats() {
				cdms += s.Detector.CDMsSent
			}
			row := DetectRow{
				Procs:    procs,
				Wall:     wall,
				CDMsSent: cdms,
				Allocs:   after.Mallocs - before.Mallocs,
				Rounds:   rounds,
			}
			if best.Wall == 0 || wall < best.Wall {
				best = row
			}
		}
		rows = append(rows, best)
	}
	return rows, nil
}

// HopRow reports the cost of one CDM hop derivation at a given algebra size:
// clone the accumulated algebra, extend it with one target and one source,
// check its match status, compare against the parent, flatten to a wire CDM
// and append-encode it into a reused frame buffer. This is exactly the
// per-hop work of Detector.expand plus the node/TCP send fast path (which
// encodes into pooled frames rather than allocating per message).
type HopRow struct {
	Entries   int           `json:"entries"`
	PerHop    time.Duration `json:"per_hop_ns"`
	AllocsPer float64       `json:"allocs_per_hop"`
	CDMBytes  int           `json:"cdm_bytes"`
}

// CDMHopScale measures the hop-path cost across algebra sizes. iters hops
// are timed per cell; allocations are a per-hop average over the batch.
func CDMHopScale(sizes []int, iters int) ([]HopRow, error) {
	if iters < 1 {
		iters = 1
	}
	rows := make([]HopRow, 0, len(sizes))
	for _, n := range sizes {
		alg := core.NewAlg()
		for i := 0; i < n; i++ {
			r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
			alg.AddSource(r, uint64(i))
			if i%2 == 0 {
				alg.AddTarget(r, uint64(i))
			}
		}
		det := core.DetectionID{Origin: "P1", Seq: 1}
		along := ids.RefID{Src: "P9", Dst: ids.GlobalRef{Node: "P1", Obj: 1}}
		newSrc := ids.RefID{Src: "P8", Dst: ids.GlobalRef{Node: "P9", Obj: 7}}
		var bytes int
		frame := make([]byte, 0, 4096) // reused like the TCP frame pool
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			derived := alg.Clone()
			derived.AddTarget(along, 3)
			derived.AddSource(newSrc, 4)
			if _, abort := derived.MatchStatus(); abort {
				return nil, fmt.Errorf("experiments: unexpected abort at size %d", n)
			}
			if derived.Equal(alg) {
				return nil, fmt.Errorf("experiments: derivation did not grow at size %d", n)
			}
			msg := wire.NewCDMFromAlg(det, along, derived, int(uint32(i)%8), core.TraceIDFor(det))
			frame = wire.AppendEncode(frame[:0], msg)
			bytes = len(frame)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		rows = append(rows, HopRow{
			Entries:   n,
			PerHop:    wall / time.Duration(iters),
			AllocsPer: float64(after.Mallocs-before.Mallocs) / float64(iters),
			CDMBytes:  bytes,
		})
	}
	return rows, nil
}

// DetectBaseline returns the recorded detection-round measurements of the
// retired string-map algebra and per-message allocating codec (the
// implementation before the dense integer-keyed representation), captured with the
// same DetectRoundScale harness on this repo's reference machine. Kept
// hardcoded so speedup tables survive the old implementation's removal.
func DetectBaseline() []DetectRow {
	return []DetectRow{
		{Procs: 8, Wall: 561968 * time.Nanosecond, CDMsSent: 64, Allocs: 2642, Rounds: 2},
		{Procs: 32, Wall: 24293409 * time.Nanosecond, CDMsSent: 1024, Allocs: 43051, Rounds: 2},
	}
}

// CDMHopBaseline returns the recorded per-hop costs of the retired map
// algebra: every hop re-hashed and re-copied all string keys on clone, sorted
// by reference strings on flatten, and allocated a fresh buffer per encode.
func CDMHopBaseline() []HopRow {
	return []HopRow{
		{Entries: 16, PerHop: 10938 * time.Nanosecond, AllocsPer: 27.0, CDMBytes: 212},
		{Entries: 64, PerHop: 37518 * time.Nanosecond, AllocsPer: 31.0, CDMBytes: 740},
		{Entries: 256, PerHop: 162828 * time.Nanosecond, AllocsPer: 39.0, CDMBytes: 3173},
	}
}

// WireRow reports codec throughput for a CDM of a given entry count.
type WireRow struct {
	Entries   int           `json:"entries"`
	EncodeNs  time.Duration `json:"encode_ns"`
	DecodeNs  time.Duration `json:"decode_ns"`
	EncAllocs float64       `json:"encode_allocs_per_op"`
	DecAllocs float64       `json:"decode_allocs_per_op"`
	Bytes     int           `json:"bytes"`
}

// WireCodecScale measures CDM encode/decode across entry counts.
func WireCodecScale(sizes []int, iters int) ([]WireRow, error) {
	if iters < 1 {
		iters = 1
	}
	rows := make([]WireRow, 0, len(sizes))
	for _, n := range sizes {
		alg := core.NewAlg()
		for i := 0; i < n; i++ {
			r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
			alg.AddSource(r, uint64(i))
			alg.AddTarget(r, uint64(i))
		}
		msg := wire.NewCDM(core.DetectionID{Origin: "P1", Seq: 9},
			ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 1}}, alg, 7)
		data := wire.Encode(msg)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			wire.Encode(msg)
		}
		encWall := time.Since(start)
		runtime.ReadMemStats(&after)
		encAllocs := float64(after.Mallocs-before.Mallocs) / float64(iters)

		runtime.GC()
		runtime.ReadMemStats(&before)
		start = time.Now()
		for i := 0; i < iters; i++ {
			if _, err := wire.Decode(data); err != nil {
				return nil, err
			}
		}
		decWall := time.Since(start)
		runtime.ReadMemStats(&after)

		rows = append(rows, WireRow{
			Entries:   n,
			EncodeNs:  encWall / time.Duration(iters),
			DecodeNs:  decWall / time.Duration(iters),
			EncAllocs: encAllocs,
			DecAllocs: float64(after.Mallocs-before.Mallocs) / float64(iters),
			Bytes:     len(data),
		})
	}
	return rows, nil
}

// WireBaseline returns the recorded codec measurements before buffer pooling
// and decoder NodeID interning: Encode allocated and grew its buffer per
// message, and Decode allocated a string per NodeID and entry field.
func WireBaseline() []WireRow {
	return []WireRow{
		{Entries: 16, EncodeNs: 408, DecodeNs: 1979, EncAllocs: 3, DecAllocs: 41, Bytes: 190},
		{Entries: 64, EncodeNs: 1297, DecodeNs: 7391, EncAllocs: 5, DecAllocs: 139, Bytes: 718},
		{Entries: 256, EncodeNs: 6000, DecodeNs: 25682, EncAllocs: 9, DecAllocs: 525, Bytes: 3215},
	}
}
