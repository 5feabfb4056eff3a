package main

import (
	"math/rand"
	"time"
)

// spec is one workload: a cluster shape, the collector's schedule and the
// load the generators put on it. Every workload runs the same two generators
// (garbage-ring slots and one invoke client) at different intensities, so
// every end-to-end metric is defined on every workload; README.md says which
// metrics each workload is meant to be read by.
type spec struct {
	Name  string
	Nodes int

	// Collector schedule, as cmd/dgc-node takes it: a tick and multiples.
	Tick                             time.Duration
	LGCEvery, SnapEvery, DetectEvery int
	Age                              uint64
	Binary                           bool // BinaryCodec snapshot before each summarization

	// Garbage rings: Slots closed-loop slots, each holding one ring over
	// RingLen nodes with Chain objects per node, refilled when reclaimed.
	RingLen, Chain, Slots int

	// Invoke client: one closed-loop caller on node 0 invoking noop on node 1
	// with two fresh argument objects. Each tick of Period it makes Burst calls
	// back to back, each following the previous reply at once, then waits for
	// the next tick. Every workload uses 13 ms: a period that divides the
	// collector's intervals would phase-lock every call to an LGC burst. Every
	// TrackEvery-th call's first argument becomes a tracked acyclic garbage
	// unit (0: none; the workload's garbage units are its rings).
	Period     time.Duration
	Burst      int
	TrackEvery int

	// Ballast: rooted objects per node in seeded chains with back-links, and
	// live cross-node references per node between ballast objects.
	Ballast, CrossLinks int
}

// Workload names are permanent: later PRs are judged per (workload, metric).
var workloads = []spec{
	{
		Name: "rings3", Nodes: 3,
		Tick: 10 * time.Millisecond, LGCEvery: 2, SnapEvery: 4, DetectEvery: 4, Age: 2,
		RingLen: 3, Chain: 1, Slots: 64,
		Period: 13 * time.Millisecond, Burst: 1,
	},
	{
		Name: "longring", Nodes: 6,
		Tick: 10 * time.Millisecond, LGCEvery: 2, SnapEvery: 4, DetectEvery: 4, Age: 2,
		RingLen: 6, Chain: 4, Slots: 16,
		Period: 13 * time.Millisecond, Burst: 1,
	},
	{
		Name: "rmi", Nodes: 2,
		Tick: 10 * time.Millisecond, LGCEvery: 2, SnapEvery: 4, DetectEvery: 4, Age: 2,
		Period: 13 * time.Millisecond, Burst: 96, TrackEvery: 64,
	},
	{
		Name: "bigheap", Nodes: 3,
		Tick: 50 * time.Millisecond, LGCEvery: 2, SnapEvery: 4, DetectEvery: 4, Age: 2,
		Binary:  true,
		RingLen: 3, Chain: 1, Slots: 32,
		Ballast: 10000, CrossLinks: 64,
		Period: 13 * time.Millisecond, Burst: 1,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns the workload at 1/div of its size (the smoke test's reduced
// size), on a tick no longer than 10 ms so that a short segment sees
// reclamations; div 1 is the workload as specified.
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	shrink := func(v, min int) int {
		if v == 0 {
			return 0
		}
		if v/div < min {
			return min
		}
		return v / div
	}
	s.Slots = shrink(s.Slots, 4)
	s.Ballast = shrink(s.Ballast, 200)
	s.CrossLinks = shrink(s.CrossLinks, 4)
	s.TrackEvery = shrink(s.TrackEvery, 4)
	s.Tick = min(s.Tick, 10*time.Millisecond)
	return s
}

// controlRings is the number of rooted rings the oracle keeps alive beside
// the garbage ones: same shape, one head left rooted, so a collector that
// reclaims a live cycle is caught.
const controlRings = 4

// ringLen is the ring length used for control rings and layer probes: the
// workload's own, or the whole cluster when it builds no garbage rings.
func (s *spec) ringLen() int {
	if s.RingLen > 0 {
		return s.RingLen
	}
	return s.Nodes
}

func (s *spec) chain() int {
	if s.Chain > 0 {
		return s.Chain
	}
	return 1
}

// inputs derives everything seeded from -seed: ring node orders, ballast
// shape and cross-links, payload sizes. The program under test only ever sees
// the operations generated from them.
type inputs struct {
	rng *rand.Rand
}

func newInputs(seed int64, workload string) *inputs {
	h := int64(0)
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return &inputs{rng: rand.New(rand.NewSource(seed*1000003 + h))}
}

// ringOrder picks the nodes a ring visits, in order.
func (in *inputs) ringOrder(nodes, length int) []int {
	return in.rng.Perm(nodes)[:length]
}

// payload returns a payload of seeded size in [16,128).
func (in *inputs) payload() []byte {
	return make([]byte, 16+in.rng.Intn(112))
}
