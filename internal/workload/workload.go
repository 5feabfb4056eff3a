// Package workload generates abstract distributed object topologies: named
// objects placed on nodes, reference edges between them and root
// designations. Topologies are pure descriptions with no dependency on the
// runtime; the cluster harness materializes them into live heaps and
// stub/scion tables.
//
// The presets reproduce the paper's figures (simple distributed cycle,
// mutually-linked cycles, cycle with an external dependency) and provide the
// parameterized families the benchmarks sweep over (rings of arbitrary
// length, random graphs, acyclic chains, forests of local garbage).
package workload

import (
	"fmt"
	"math/rand"

	"dgc/internal/ids"
)

// ObjSpec places one named object on a node.
type ObjSpec struct {
	Name    string
	Node    ids.NodeID
	Rooted  bool
	Payload int // payload size in bytes (zero for none)
}

// EdgeSpec is a reference between two named objects (local or remote is
// implied by their placement).
type EdgeSpec struct {
	From, To string
}

// Topology is a complete description of a distributed object graph.
type Topology struct {
	Name    string
	Objects []ObjSpec
	Edges   []EdgeSpec
}

// Nodes returns the distinct node identifiers used, in canonical order.
func (t *Topology) Nodes() []ids.NodeID {
	seen := make(map[ids.NodeID]struct{})
	var out []ids.NodeID
	for _, o := range t.Objects {
		if _, ok := seen[o.Node]; !ok {
			seen[o.Node] = struct{}{}
			out = append(out, o.Node)
		}
	}
	ids.SortNodeIDs(out)
	return out
}

// Validate checks internal consistency: unique names, edges between known
// objects.
func (t *Topology) Validate() error {
	names := make(map[string]struct{}, len(t.Objects))
	for _, o := range t.Objects {
		if o.Name == "" {
			return fmt.Errorf("workload %s: unnamed object", t.Name)
		}
		if _, dup := names[o.Name]; dup {
			return fmt.Errorf("workload %s: duplicate object %q", t.Name, o.Name)
		}
		names[o.Name] = struct{}{}
	}
	for _, e := range t.Edges {
		if _, ok := names[e.From]; !ok {
			return fmt.Errorf("workload %s: edge from unknown %q", t.Name, e.From)
		}
		if _, ok := names[e.To]; !ok {
			return fmt.Errorf("workload %s: edge to unknown %q", t.Name, e.To)
		}
	}
	return nil
}

// CountRemoteEdges returns how many edges cross process boundaries.
func (t *Topology) CountRemoteEdges() int {
	place := make(map[string]ids.NodeID, len(t.Objects))
	for _, o := range t.Objects {
		place[o.Name] = o.Node
	}
	n := 0
	for _, e := range t.Edges {
		if place[e.From] != place[e.To] {
			n++
		}
	}
	return n
}

// nodeName returns the canonical simulation node name P1..Pn.
func nodeName(i int) ids.NodeID { return ids.NodeID(fmt.Sprintf("P%d", i+1)) }

// Ring builds a distributed garbage cycle spanning `procs` processes with
// `chain` objects per process: the generalization of the paper's Figure 3.
// The last object of each process holds a remote reference to the first
// object of the next; no object is rooted, so the whole ring is garbage
// detectable only by the DCDA.
func Ring(procs, chain int) *Topology {
	if procs < 2 {
		procs = 2
	}
	if chain < 1 {
		chain = 1
	}
	t := &Topology{Name: fmt.Sprintf("ring-%dx%d", procs, chain)}
	for p := 0; p < procs; p++ {
		for c := 0; c < chain; c++ {
			t.Objects = append(t.Objects, ObjSpec{
				Name: ringObj(p, c),
				Node: nodeName(p),
			})
			if c > 0 {
				t.Edges = append(t.Edges, EdgeSpec{From: ringObj(p, c-1), To: ringObj(p, c)})
			}
		}
		next := (p + 1) % procs
		t.Edges = append(t.Edges, EdgeSpec{From: ringObj(p, chain-1), To: ringObj(next, 0)})
	}
	return t
}

func ringObj(p, c int) string { return fmt.Sprintf("p%d.o%d", p, c) }

// RingHead returns the name of the ring entry object on the first process
// (the object whose scion is the natural detection candidate).
func RingHead() string { return ringObj(0, 0) }

// LiveRing is Ring with the head object rooted: a live distributed cycle
// that must never be collected.
func LiveRing(procs, chain int) *Topology {
	t := Ring(procs, chain)
	t.Name = fmt.Sprintf("live-%s", t.Name)
	t.Objects[0].Rooted = true
	return t
}

// Figure3 is the paper's Figure 3 verbatim: four processes, the garbage
// cycle {F,H,J}@P2 -> {Q,R,S}@P4 -> {O,M,K}@P3 -> {D,C,B}@P1 -> F@P2, plus
// the internal references F->G->H and the unrooted leftover A@P1.
func Figure3() *Topology {
	return &Topology{
		Name: "figure3",
		Objects: []ObjSpec{
			{Name: "A", Node: "P1"}, {Name: "B", Node: "P1"}, {Name: "C", Node: "P1"}, {Name: "D", Node: "P1"},
			{Name: "F", Node: "P2"}, {Name: "G", Node: "P2"}, {Name: "H", Node: "P2"}, {Name: "J", Node: "P2"},
			{Name: "O", Node: "P3"}, {Name: "M", Node: "P3"}, {Name: "K", Node: "P3"},
			{Name: "Q", Node: "P4"}, {Name: "R", Node: "P4"}, {Name: "S", Node: "P4"},
		},
		Edges: []EdgeSpec{
			{From: "A", To: "C"},
			{From: "D", To: "C"}, {From: "C", To: "B"},
			{From: "F", To: "H"}, {From: "F", To: "G"}, {From: "G", To: "H"}, {From: "H", To: "J"},
			{From: "O", To: "M"}, {From: "M", To: "K"},
			{From: "Q", To: "R"}, {From: "R", To: "S"},
			{From: "B", To: "F"}, // P1 -> P2
			{From: "J", To: "Q"}, // P2 -> P4
			{From: "S", To: "O"}, // P4 -> P3
			{From: "K", To: "D"}, // P3 -> P1
		},
	}
}

// Figure4 is the paper's Figure 4: two mutually-linked distributed cycles
// over six processes, converging on the T stub at P5.
func Figure4() *Topology {
	return &Topology{
		Name: "figure4",
		Objects: []ObjSpec{
			{Name: "F", Node: "P2"},
			{Name: "V", Node: "P5"}, {Name: "Y", Node: "P5"},
			{Name: "T", Node: "P4"},
			{Name: "D", Node: "P1"},
			{Name: "K", Node: "P3"},
			{Name: "ZB", Node: "P6"}, {Name: "ZD", Node: "P6"},
		},
		Edges: []EdgeSpec{
			{From: "F", To: "V"}, {From: "F", To: "K"},
			{From: "V", To: "T"}, {From: "Y", To: "T"},
			{From: "T", To: "D"}, {From: "D", To: "F"},
			{From: "K", To: "ZB"}, {From: "ZB", To: "ZD"}, {From: "ZD", To: "Y"},
		},
	}
}

// Figure1 is Figure 3 plus a fifth process holding a rooted reference into
// the cycle: the "extra dependency" of the paper's Figure 1 discussion.
func Figure1() *Topology {
	t := Figure3()
	t.Name = "figure1"
	t.Objects = append(t.Objects, ObjSpec{Name: "W", Node: "P5", Rooted: true})
	t.Edges = append(t.Edges, EdgeSpec{From: "W", To: "F"})
	return t
}

// AcyclicChain builds a garbage chain crossing `procs` processes (one object
// each): purely acyclic distributed garbage, reclaimable by reference
// listing alone.
func AcyclicChain(procs int) *Topology {
	if procs < 2 {
		procs = 2
	}
	t := &Topology{Name: fmt.Sprintf("acyclic-%d", procs)}
	for p := 0; p < procs; p++ {
		t.Objects = append(t.Objects, ObjSpec{Name: fmt.Sprintf("c%d", p), Node: nodeName(p)})
		if p > 0 {
			t.Edges = append(t.Edges, EdgeSpec{From: fmt.Sprintf("c%d", p-1), To: fmt.Sprintf("c%d", p)})
		}
	}
	return t
}

// SharedTrunk builds `k` distributed garbage cycles that all traverse the
// same trunk of processes: K fan-in objects a0..a(k-1) on the first process
// each reference a shared hub, the hub starts a chain crossing every other
// process, and a fan object on the last process closes all K cycles with
// remote back-references to the fan-in objects. Nothing is rooted.
//
// This is the per-edge batching stress shape: every one of the K detections
// started at the first process exits through the SAME outgoing reference
// (hub -> trunk), so each trunk hop ships one BatchCDM with K sections where
// per-detection framing would ship K CDMs.
func SharedTrunk(k, procs int) *Topology {
	if k < 1 {
		k = 1
	}
	if procs < 2 {
		procs = 2
	}
	t := &Topology{Name: fmt.Sprintf("shared-trunk-%dx%d", k, procs)}
	for i := 0; i < k; i++ {
		t.Objects = append(t.Objects, ObjSpec{Name: trunkEntry(i), Node: nodeName(0)})
		t.Edges = append(t.Edges, EdgeSpec{From: trunkEntry(i), To: "hub"})
	}
	t.Objects = append(t.Objects, ObjSpec{Name: "hub", Node: nodeName(0)})
	prev := "hub"
	for p := 1; p < procs; p++ {
		name := fmt.Sprintf("t%d", p)
		t.Objects = append(t.Objects, ObjSpec{Name: name, Node: nodeName(p)})
		t.Edges = append(t.Edges, EdgeSpec{From: prev, To: name})
		prev = name
	}
	t.Objects = append(t.Objects, ObjSpec{Name: "fan", Node: nodeName(procs - 1)})
	t.Edges = append(t.Edges, EdgeSpec{From: prev, To: "fan"})
	for i := 0; i < k; i++ {
		t.Edges = append(t.Edges, EdgeSpec{From: "fan", To: trunkEntry(i)})
	}
	return t
}

func trunkEntry(i int) string { return fmt.Sprintf("a%d", i) }

// WebGraph builds a seeded web of overlapping distributed garbage cycles:
// `cycles` rings of random length threaded across `procs` processes, plus
// `chords` extra references between randomly-chosen cycle objects. Nothing
// is rooted, so everything is garbage, but the chords make cycles share
// objects and edges — many detections traverse the same references, which
// is where batching and hierarchical aggregation pay off. All randomness
// comes from seed.
func WebGraph(seed int64, procs, cycles, chords int) *Topology {
	rng := rand.New(rand.NewSource(seed))
	if procs < 2 {
		procs = 2
	}
	if cycles < 1 {
		cycles = 1
	}
	t := &Topology{Name: fmt.Sprintf("web-%d-%dx%d+%d", seed, procs, cycles, chords)}
	var all []string
	for c := 0; c < cycles; c++ {
		length := 3 + rng.Intn(procs+2)
		names := make([]string, length)
		for i := range names {
			names[i] = fmt.Sprintf("w%d.%d", c, i)
			t.Objects = append(t.Objects, ObjSpec{
				Name: names[i],
				Node: nodeName(rng.Intn(procs)),
			})
		}
		for i := range names {
			t.Edges = append(t.Edges, EdgeSpec{From: names[i], To: names[(i+1)%length]})
		}
		all = append(all, names...)
	}
	for i := 0; i < chords && len(all) > 1; i++ {
		from := all[rng.Intn(len(all))]
		to := all[rng.Intn(len(all))]
		if from == to {
			continue
		}
		t.Edges = append(t.Edges, EdgeSpec{From: from, To: to})
	}
	return t
}

// RandomConfig parameterizes RandomGraph.
type RandomConfig struct {
	Procs       int     // number of processes
	ObjsPerProc int     // objects per process
	OutDegree   float64 // mean references per object
	RemoteFrac  float64 // fraction of references that cross processes
	RootFrac    float64 // fraction of objects that are roots
}

// RandomGraph builds a seeded random distributed graph: the safety /
// completeness property-test workload. All randomness comes from seed.
func RandomGraph(seed int64, cfg RandomConfig) *Topology {
	rng := rand.New(rand.NewSource(seed))
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	if cfg.ObjsPerProc < 1 {
		cfg.ObjsPerProc = 1
	}
	t := &Topology{Name: fmt.Sprintf("random-%d", seed)}
	names := make([][]string, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		for o := 0; o < cfg.ObjsPerProc; o++ {
			name := fmt.Sprintf("r%d.%d", p, o)
			names[p] = append(names[p], name)
			t.Objects = append(t.Objects, ObjSpec{
				Name:   name,
				Node:   nodeName(p),
				Rooted: rng.Float64() < cfg.RootFrac,
			})
		}
	}
	edges := int(float64(cfg.Procs*cfg.ObjsPerProc) * cfg.OutDegree)
	for i := 0; i < edges; i++ {
		fp := rng.Intn(cfg.Procs)
		from := names[fp][rng.Intn(cfg.ObjsPerProc)]
		tp := fp
		if cfg.Procs > 1 && rng.Float64() < cfg.RemoteFrac {
			for tp == fp {
				tp = rng.Intn(cfg.Procs)
			}
		}
		to := names[tp][rng.Intn(cfg.ObjsPerProc)]
		if from == to {
			continue // self references add nothing here
		}
		t.Edges = append(t.Edges, EdgeSpec{From: from, To: to})
	}
	return t
}
