// Package baseline implements two complete distributed garbage collectors
// from the paper's related work, over the same heap/stub/scion substrate as
// the DCDA, for head-to-head comparison benchmarks:
//
//   - Hughes (1985) timestamp propagation with a global-minimum termination
//     service [7]: complete, but requires a consensus-like global threshold
//     computation and does continuous global work even when no garbage
//     exists — the scalability cost the paper criticizes;
//
//   - Maheshwari & Liskov (1997) distributed back-tracing [11]: traces the
//     inverse reference graph from a suspect towards roots via chained
//     remote procedure calls, requiring per-trace state at every visited
//     process — the state cost the paper criticizes.
//
// Both are implemented for quiescent graphs (no concurrent mutator), which
// is all the comparison experiments need; their original papers add
// barriers we do not reproduce.
package baseline

import (
	"fmt"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
	"dgc/internal/workload"
)

// Proc is the minimal process substrate shared by both baselines: a heap
// and reference-listing tables, without the DCDA machinery.
type Proc struct {
	Heap  *heap.Heap
	Table *refs.Table
}

// NewProc returns an empty baseline process.
func NewProc(id ids.NodeID) *Proc {
	return &Proc{Heap: heap.New(id), Table: refs.NewTable(id)}
}

// ID returns the process identifier.
func (p *Proc) ID() ids.NodeID { return p.Heap.Node() }

// World is a set of baseline processes materialized from a topology.
type World struct {
	Procs map[ids.NodeID]*Proc
	Order []ids.NodeID
	// Names maps topology object names to global references.
	Names map[string]ids.GlobalRef
	// lgcs counts LGC rounds; it is every stub set's sequence number.
	lgcs uint64
}

// Build materializes a workload topology into baseline processes with
// correctly paired stubs and scions.
func Build(topo *workload.Topology) (*World, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	w := &World{Procs: make(map[ids.NodeID]*Proc), Names: make(map[string]ids.GlobalRef)}
	for _, n := range topo.Nodes() {
		w.Procs[n] = NewProc(n)
		w.Order = append(w.Order, n)
	}
	for _, spec := range topo.Objects {
		p := w.Procs[spec.Node]
		var payload []byte
		if spec.Payload > 0 {
			payload = make([]byte, spec.Payload)
		}
		o := p.Heap.Alloc(payload)
		if spec.Rooted {
			if err := p.Heap.AddRoot(o.ID); err != nil {
				return nil, err
			}
		}
		w.Names[spec.Name] = ids.GlobalRef{Node: spec.Node, Obj: o.ID}
	}
	for _, e := range topo.Edges {
		f, g := w.Names[e.From], w.Names[e.To]
		fp := w.Procs[f.Node]
		if f.Node == g.Node {
			if err := fp.Heap.AddLocalRef(f.Obj, g.Obj); err != nil {
				return nil, err
			}
			continue
		}
		if err := fp.Heap.AddRemoteRef(f.Obj, g); err != nil {
			return nil, err
		}
		fp.Table.EnsureStub(g)
		w.Procs[g.Node].Table.EnsureScion(f.Node, g.Obj)
	}
	return w, nil
}

// LGC runs a reference-listing local collection on every process and
// applies the resulting stub sets immediately (settled round). Returns
// objects swept and NewSetStubs-equivalent messages exchanged.
func (w *World) LGC() (swept, messages int) {
	w.lgcs++
	var pending []refs.TargetedStubSet
	for _, id := range w.Order {
		p := w.Procs[id]
		seeds := p.Heap.Roots()
		seeds = append(seeds, p.Table.ScionTargets()...)
		live := p.Heap.ReachableFrom(seeds...)
		for _, objID := range p.Heap.IDs() {
			if _, ok := live[objID]; !ok {
				p.Heap.Delete(objID)
				swept++
			}
		}
		wanted := make(map[ids.GlobalRef]struct{})
		for _, r := range p.Heap.RemoteRefsFrom(live) {
			wanted[r] = struct{}{}
		}
		byNode := make(map[ids.NodeID][]ids.ObjID)
		for _, s := range p.Table.Stubs() {
			byNode[s.Target.Node] = nil // remember peer even if all stubs die
			if _, ok := wanted[s.Target]; !ok {
				p.Table.DeleteStub(s.Target)
			}
		}
		for r := range wanted {
			p.Table.EnsureStub(r)
		}
		for _, s := range p.Table.Stubs() {
			byNode[s.Target.Node] = append(byNode[s.Target.Node], s.Target.Obj)
		}
		for to, objs := range byNode {
			pending = append(pending, refs.TargetedStubSet{To: to, Msg: refs.StubSetMsg{From: id, Seq: w.lgcs, Objs: objs}})
		}
	}
	for _, t := range pending {
		messages++
		if p := w.Procs[t.To]; p != nil {
			p.Table.ApplyStubSet(t.Msg)
		}
	}
	return swept, messages
}

// TotalObjects sums live objects across processes.
func (w *World) TotalObjects() int {
	total := 0
	for _, p := range w.Procs {
		total += p.Heap.Len()
	}
	return total
}

// TotalScions sums scions across processes.
func (w *World) TotalScions() int {
	total := 0
	for _, p := range w.Procs {
		total += p.Table.NumScions()
	}
	return total
}

func (w *World) proc(id ids.NodeID) (*Proc, error) {
	p := w.Procs[id]
	if p == nil {
		return nil, fmt.Errorf("baseline: unknown process %s", id)
	}
	return p, nil
}
