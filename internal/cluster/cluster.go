// Package cluster harnesses a set of nodes over a deterministic in-process
// network: the simulation backbone for integration tests, experiments and
// examples.
//
// The cluster owns the schedule: every node is a stepped node.Node (no
// goroutine, no clock of its own) that the cluster drives in canonical order
// on the caller's goroutine — Tick advances the virtual clock, GCRound runs
// the collectors, Settle pumps the network to quiescence — so a run, journal
// included, is a pure function of (topology, configuration, seed) on any
// GOMAXPROCS.
package cluster

import (
	"fmt"
	"sort"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/transport"
	"dgc/internal/workload"
)

// Cluster is a set of nodes on one in-process network.
type Cluster struct {
	// Net is the underlying fabric; exposed for fault injection and
	// message accounting.
	Net   *transport.Network
	nodes map[ids.NodeID]*node.Node
	order []ids.NodeID
}

// New creates a cluster of nodes with the given shared configuration. The
// seed drives the network's fault randomness only.
func New(seed int64, cfg node.Config, names ...ids.NodeID) *Cluster {
	c := &Cluster{
		Net:   transport.NewNetwork(seed),
		nodes: make(map[ids.NodeID]*node.Node, len(names)),
	}
	for _, n := range names {
		c.Add(n, cfg)
	}
	return c
}

// Add creates one more node with its own configuration.
func (c *Cluster) Add(id ids.NodeID, cfg node.Config) *node.Node {
	if _, dup := c.nodes[id]; dup {
		panic(fmt.Sprintf("cluster: duplicate node %s", id))
	}
	n := node.New(id, c.Net.Endpoint(id), cfg)
	c.nodes[id] = n
	// Insert in canonical position instead of re-sorting the whole slice on
	// every Add (quadratic churn when building large clusters).
	i := sort.Search(len(c.order), func(i int) bool { return c.order[i] >= id })
	c.order = append(c.order, "")
	copy(c.order[i+1:], c.order[i:])
	c.order[i] = id
	return n
}

// Node returns the named node (nil if absent).
func (c *Cluster) Node(id ids.NodeID) *node.Node { return c.nodes[id] }

// Replace swaps in a different node instance under an existing name —
// the restart primitive (pair with node.Restore). The replacement must
// already be attached to this cluster's endpoint for the name.
func (c *Cluster) Replace(id ids.NodeID, n *node.Node) {
	if _, ok := c.nodes[id]; !ok {
		panic(fmt.Sprintf("cluster: Replace of unknown node %s", id))
	}
	c.nodes[id] = n
}

// Nodes returns all nodes in canonical order.
func (c *Cluster) Nodes() []*node.Node {
	out := make([]*node.Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id])
	}
	return out
}

// Settle pumps the network until no messages are in flight and returns the
// number delivered.
func (c *Cluster) Settle() int { return c.Net.Drain(0) }

// Tick advances every node's logical clock once (running their configured
// daemons) and settles the network. Repeated `rounds` times.
func (c *Cluster) Tick(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, id := range c.order {
			c.nodes[id].Tick()
		}
		c.Settle()
	}
}

// GCRound runs one explicit, fully-settled collection round: every node's
// local collection (emitting NewSetStubs), settle, then every node's
// summarization and detection, settle — nodes stepped one after another in
// canonical order, so the fabric's queue and fault-randomness stream evolve
// identically on every run. Summarization emits no messages, so a node may
// detect straight after summarizing without waiting for the others. Used by
// tests that drive the collectors manually instead of through Tick.
func (c *Cluster) GCRound() {
	for _, id := range c.order {
		c.nodes[id].RunLGC()
	}
	c.Settle()
	for _, id := range c.order {
		n := c.nodes[id]
		if err := n.Summarize(); err != nil {
			panic(fmt.Sprintf("cluster: %s: summarize: %v", id, err))
		}
		n.RunDetection()
	}
	c.Settle()
}

// CollectFully runs GCRounds until the global object count stops shrinking
// or maxRounds is hit, returning the number of rounds executed. This is the
// "let the collectors finish" primitive of the completeness tests.
func (c *Cluster) CollectFully(maxRounds int) int {
	prev := -1
	for r := 0; r < maxRounds; r++ {
		cur := c.TotalObjects() + c.TotalScions()
		if cur == prev {
			return r
		}
		prev = cur
		c.GCRound()
	}
	return maxRounds
}

// TotalObjects sums heap sizes over all nodes, in canonical node order (a
// deterministic visit order, so aggregation work is reproducible).
func (c *Cluster) TotalObjects() int {
	total := 0
	for _, id := range c.order {
		total += c.nodes[id].NumObjects()
	}
	return total
}

// TotalScions sums scion counts over all nodes in canonical order.
func (c *Cluster) TotalScions() int {
	total := 0
	for _, id := range c.order {
		total += c.nodes[id].NumScions()
	}
	return total
}

// TotalStubs sums stub counts over all nodes in canonical order.
func (c *Cluster) TotalStubs() int {
	total := 0
	for _, id := range c.order {
		total += c.nodes[id].NumStubs()
	}
	return total
}

// Connect grants object fromObj on node from a reference to toObj on node
// to, preserving scion-before-stub. The harness bootstrap primitive.
func (c *Cluster) Connect(from ids.NodeID, fromObj ids.ObjID, to ids.NodeID, toObj ids.ObjID) error {
	fn, tn := c.nodes[from], c.nodes[to]
	if fn == nil || tn == nil {
		return fmt.Errorf("cluster: unknown node %s or %s", from, to)
	}
	if from == to {
		var err error
		fn.With(func(m node.Mutator) { err = m.Link(fromObj, toObj) })
		return err
	}
	if err := tn.EnsureScionFor(from, toObj); err != nil {
		return err
	}
	return fn.HoldRemote(fromObj, ids.GlobalRef{Node: to, Obj: toObj})
}

// Materialize instantiates a workload topology: allocates the objects
// (creating nodes on demand with cfg), applies roots, and wires the edges.
// It returns the mapping from topology object names to global references.
func (c *Cluster) Materialize(t *workload.Topology, cfg node.Config) (map[string]ids.GlobalRef, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	for _, id := range t.Nodes() {
		if c.nodes[id] == nil {
			c.Add(id, cfg)
		}
	}
	refs := make(map[string]ids.GlobalRef, len(t.Objects))
	for _, spec := range t.Objects {
		n := c.nodes[spec.Node]
		var ref ids.GlobalRef
		var err error
		n.With(func(m node.Mutator) {
			var payload []byte
			if spec.Payload > 0 {
				payload = make([]byte, spec.Payload)
			}
			obj := m.Alloc(payload)
			ref = m.GlobalRef(obj)
			if spec.Rooted {
				err = m.Root(obj)
			}
		})
		if err != nil {
			return nil, err
		}
		refs[spec.Name] = ref
	}
	for _, e := range t.Edges {
		f, g := refs[e.From], refs[e.To]
		if err := c.Connect(f.Node, f.Obj, g.Node, g.Obj); err != nil {
			return nil, fmt.Errorf("cluster: edge %s->%s: %w", e.From, e.To, err)
		}
	}
	return refs, nil
}

// GlobalLive computes ground truth: the set of objects reachable from any
// process root following local AND remote references — what an omniscient
// collector would keep. Used by safety/completeness tests; it reads
// consistent heap clones, so call it while the cluster is quiescent.
func (c *Cluster) GlobalLive() map[ids.GlobalRef]struct{} {
	heaps := make(map[ids.NodeID]*heap.Heap, len(c.nodes))
	for id, n := range c.nodes {
		heaps[id] = n.CloneHeap()
	}
	live := make(map[ids.GlobalRef]struct{})
	var queue []ids.GlobalRef
	push := func(ref ids.GlobalRef) {
		h := heaps[ref.Node]
		if h == nil || !h.Contains(ref.Obj) {
			return
		}
		if _, ok := live[ref]; ok {
			return
		}
		live[ref] = struct{}{}
		queue = append(queue, ref)
	}
	for _, id := range c.order {
		for _, r := range heaps[id].Roots() {
			push(ids.GlobalRef{Node: id, Obj: r})
		}
	}
	for len(queue) > 0 {
		ref := queue[0]
		queue = queue[1:]
		o := heaps[ref.Node].Get(ref.Obj)
		for _, l := range o.Locals {
			push(ids.GlobalRef{Node: ref.Node, Obj: l})
		}
		for _, r := range o.Remotes {
			push(r)
		}
	}
	return live
}

// LiveViolations reports objects that SHOULD be alive (per GlobalLive
// ground truth computed before collection) but have been reclaimed: any
// entry here is a safety bug.
func (c *Cluster) LiveViolations(expectedLive map[ids.GlobalRef]struct{}) []ids.GlobalRef {
	var out []ids.GlobalRef
	for ref := range expectedLive {
		n := c.nodes[ref.Node]
		if n == nil {
			out = append(out, ref)
			continue
		}
		found := false
		h := n.CloneHeap()
		found = h.Contains(ref.Obj)
		if !found {
			out = append(out, ref)
		}
	}
	ids.SortGlobalRefs(out)
	return out
}
