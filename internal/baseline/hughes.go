package baseline

import "dgc/internal/ids"

// Hughes implements a timestamp-propagation complete DGC in the style of
// Hughes [7], the first of the paper's related-work baselines.
//
// Every process keeps a timestamp per scion. Each round, every process
// propagates timestamps forward: a stub reachable from a local root carries
// the current global round number; a stub reachable from a scion carries
// that scion's timestamp; stubs take the maximum. Stub timestamps are sent
// to the matching scions (one stamp message per destination and stamp
// value), which keep their maximum.
// Live structures therefore keep receiving fresh timestamps, while garbage
// — cyclic or not — has its timestamps frozen at the time it died.
//
// A scion whose timestamp falls more than Lag rounds behind the global
// round is garbage and is deleted. Computing the threshold safely requires
// agreement on global progress — the termination-detection/consensus
// component that makes Hughes-style collectors non-scalable and
// fault-intolerant (the paper cites [5]); here a central coordinator
// gathers one report per process and broadcasts the threshold each round
// (2N threshold messages), which is the cost the
// comparison benchmarks expose: CONTINUOUS global work proportional to the
// whole distributed graph, even when nothing is garbage, versus the DCDA's
// work proportional to candidate cycles only.
//
// The simulation runs in settled rounds (every message delivered before the
// next round), so Lag bounds timestamp propagation delay: the number of
// remote hops on any root-to-scion path, at most the total number of
// inter-process references. NewHughes picks that worst case automatically.
type Hughes struct {
	World *World
	// Lag is the staleness threshold in rounds.
	Lag uint64

	round  uint64
	stamps map[ids.RefID]uint64 // per scion, keyed by the reference
	Stats  HughesStats
}

// HughesStats counts baseline activity.
type HughesStats struct {
	Rounds            uint64
	StampMessages     uint64 // stub->scion timestamp messages
	ThresholdMessages uint64 // coordinator gather/broadcast messages
	StubSetMessages   uint64 // reference-listing traffic from the LGC step
	ScionsDeleted     uint64
	ObjectsSwept      uint64
}

// NewHughes builds the baseline over a world, with the conservative
// worst-case lag.
func NewHughes(w *World) *Hughes {
	h := &Hughes{World: w, stamps: make(map[ids.RefID]uint64)}
	totalRefs := 0
	for _, id := range w.Order {
		totalRefs += w.Procs[id].Table.NumScions()
	}
	h.Lag = uint64(totalRefs + len(w.Order) + 1)
	return h
}

// Round executes one settled collection round: timestamp propagation,
// threshold agreement, scion expiry and a local collection sweep.
func (h *Hughes) Round() {
	h.round++
	h.Stats.Rounds++

	// Phase 1: forward propagation within each process, producing one stamp
	// message per (destination, stamp value) group.
	type delivery struct {
		from, to ids.NodeID
		stamp    uint64
		objs     []ids.ObjID
	}
	var deliveries []delivery
	for _, id := range h.World.Order {
		p := h.World.Procs[id]
		rootReach := p.Heap.ReachableFromRoots()

		// stubStamp accumulates the max timestamp reaching each stub.
		stubStamp := make(map[ids.GlobalRef]uint64)
		for _, st := range p.Table.Stubs() {
			for holder := range p.Heap.HoldersOf(st.Target) {
				if _, ok := rootReach[holder]; ok {
					stubStamp[st.Target] = h.round
					break
				}
			}
		}
		for _, sc := range p.Table.Scions() {
			reach := p.Heap.ReachableFrom(sc.Obj)
			scStamp := h.stamps[sc.RefID(id)]
			for _, tgt := range p.Heap.RemoteRefsFrom(reach) {
				if p.Table.Stub(tgt) == nil {
					continue
				}
				if scStamp > stubStamp[tgt] {
					stubStamp[tgt] = scStamp
				}
			}
		}
		// Group stub stamps into messages per (node, stamp).
		grouped := make(map[ids.NodeID]map[uint64][]ids.ObjID)
		for tgt, stamp := range stubStamp {
			if grouped[tgt.Node] == nil {
				grouped[tgt.Node] = make(map[uint64][]ids.ObjID)
			}
			grouped[tgt.Node][stamp] = append(grouped[tgt.Node][stamp], tgt.Obj)
		}
		for to, byStamp := range grouped {
			for stamp, objs := range byStamp {
				deliveries = append(deliveries, delivery{from: id, to: to, stamp: stamp, objs: objs})
			}
		}
	}
	for _, d := range deliveries {
		h.Stats.StampMessages++
		p := h.World.Procs[d.to]
		if p == nil {
			continue
		}
		for _, obj := range d.objs {
			key := ids.RefID{Src: d.from, Dst: ids.GlobalRef{Node: d.to, Obj: obj}}
			if p.Table.Scion(d.from, obj) == nil {
				continue
			}
			if d.stamp > h.stamps[key] {
				h.stamps[key] = d.stamp
			}
		}
	}

	// Phase 2: threshold agreement — one report to and one broadcast from
	// the coordinator per process, every round, whether or not any garbage
	// exists.
	h.Stats.ThresholdMessages += 2 * uint64(len(h.World.Order))
	var threshold uint64
	if h.round > h.Lag {
		threshold = h.round - h.Lag
	}

	// Phase 3: expire scions whose timestamp fell behind the threshold.
	for _, id := range h.World.Order {
		p := h.World.Procs[id]
		for _, sc := range p.Table.Scions() {
			key := sc.RefID(id)
			if h.stamps[key] < threshold {
				p.Table.DeleteScion(sc.Src, sc.Obj)
				delete(h.stamps, key)
				h.Stats.ScionsDeleted++
			}
		}
	}

	// Phase 4: local collections + reference listing.
	swept, msgs := h.World.LGC()
	h.Stats.ObjectsSwept += uint64(swept)
	h.Stats.StubSetMessages += uint64(msgs)
}

// RunUntilStable runs rounds until the world has not shrunk for Lag+1
// consecutive rounds (frozen timestamps take up to Lag rounds to fall
// behind the threshold) or maxRounds elapses. Returns rounds executed.
func (h *Hughes) RunUntilStable(maxRounds int) int {
	prev := -1
	quiet := uint64(0)
	for r := 0; r < maxRounds; r++ {
		cur := h.World.TotalObjects() + h.World.TotalScions()
		if cur == prev {
			quiet++
			if quiet > h.Lag {
				return r
			}
		} else {
			quiet = 0
		}
		prev = cur
		h.Round()
	}
	return maxRounds
}
