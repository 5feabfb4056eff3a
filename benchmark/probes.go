package main

import (
	"fmt"
	"time"

	"dgc/internal/core"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/snapshot"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// Layer probes: single-layer costs measured after the segments, on the
// workload's own steady-state data, with nothing else running.

var probeSink int

// probeHeap times the heap and snapshot layers on a clone of node 0's heap.
func probeHeap(h *heap.Heap, out map[string]float64) error {
	const reps = 5
	var clone, index, encode []float64
	var size int
	for i := 0; i < reps; i++ {
		t := time.Now()
		cp := h.Clone()
		clone = append(clone, msSince(t))
		probeSink += cp.Len()

		t = time.Now()
		ix := h.BuildIndex()
		_, ncomp := ix.SCC()
		index = append(index, msSince(t))
		probeSink += int(ncomp)

		t = time.Now()
		data, err := snapshot.BinaryCodec{}.Encode(h)
		if err != nil {
			return fmt.Errorf("probe: snapshot encode: %w", err)
		}
		encode = append(encode, msSince(t))
		size = len(data)
	}
	out["heap.clone_ms"] = median(clone)
	out["heap.index_ms"] = median(index)
	out["snapshot.encode_ms"] = median(encode)
	out["snapshot.bytes"] = float64(size)
	return nil
}

// probeCDM times the wire codec and the per-hop algebra work on a CDM of the
// workload's algebra size: one entry per reference of a ring of n nodes.
func probeCDM(n, reps int, out map[string]float64) error {
	alg := core.NewAlg()
	refs := make([]ids.RefID, n)
	for i := range refs {
		refs[i] = ids.RefID{
			Src: ids.NodeID(fmt.Sprintf("probe%d", i)),
			Dst: ids.GlobalRef{Node: ids.NodeID(fmt.Sprintf("probe%d", (i+1)%n)), Obj: ids.ObjID(1000 + i)},
		}
		alg.AddSource(refs[i], 3)
		alg.AddTarget(refs[i], 3)
	}
	det := core.DetectionID{Origin: "probe0", Seq: 1}
	msg := wire.NewCDMFromAlg(det, refs[0], alg, n, core.TraceIDFor(det))
	data := wire.Encode(msg)

	t := time.Now()
	for i := 0; i < reps; i++ {
		probeSink += len(wire.Encode(msg))
	}
	out["wire.cdm_encode_ns"] = float64(time.Since(t)) / float64(reps)

	t = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := wire.Decode(data); err != nil {
			return fmt.Errorf("probe: CDM decode: %w", err)
		}
	}
	out["wire.cdm_decode_ns"] = float64(time.Since(t)) / float64(reps)
	out["wire.cdm_bytes"] = float64(len(data))

	// One hop's algebra work as handleCDM and the detector do it: merge the
	// arriving algebra into the accumulator, clone it, extend the clone by the
	// local scion and stub, evaluate the match.
	decoded, err := wire.Decode(data)
	if err != nil {
		return fmt.Errorf("probe: CDM decode: %w", err)
	}
	cdm := decoded.(*wire.CDM)
	extra := ids.RefID{Src: "probeX", Dst: ids.GlobalRef{Node: "probe0", Obj: 999}}
	t = time.Now()
	for i := 0; i < reps; i++ {
		acc := core.NewAlg()
		cdm.MergeAlgInto(acc)
		derived := acc.Clone()
		derived.AddSource(extra, 1)
		derived.AddTarget(extra, 1)
		if found, _ := derived.MatchStatus(); found {
			probeSink++
		}
	}
	out["core.hop_ns"] = float64(time.Since(t)) / float64(reps)
	return nil
}

// probeTCP is a ping-pong between two bare TCPEndpoints on loopback: the
// transport's round trip with no node behind it.
func probeTCP(pings int, out map[string]float64) error {
	a, err := transport.ListenTCP("pingA", "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.ListenTCP("pingB", "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer("pingB", b.Addr())
	b.AddPeer("pingA", a.Addr())
	pong := make(chan struct{}, 1)
	b.SetHandler(func(from ids.NodeID, msg wire.Message) []transport.Envelope {
		return []transport.Envelope{{To: from, Msg: msg}}
	})
	a.SetHandler(func(ids.NodeID, wire.Message) []transport.Envelope {
		pong <- struct{}{}
		return nil
	})
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t := time.Now()
		if err := a.Send("pingB", &wire.Credit{Consumed: uint64(i)}); err != nil {
			return fmt.Errorf("probe: tcp ping: %w", err)
		}
		select {
		case <-pong:
		case <-time.After(opTimeout):
			return fmt.Errorf("probe: tcp ping %d: no pong within %v", i, opTimeout)
		}
		rtts = append(rtts, float64(time.Since(t))/1e3)
	}
	out["transport.tcp_rtt_us_p50"] = median(rtts)
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
