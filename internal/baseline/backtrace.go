package baseline

import "dgc/internal/ids"

// Backtracer implements distributed back-tracing in the style of Maheshwari
// & Liskov [11], the second related-work baseline.
//
// Starting from a suspect object (the target of a scion), the collector
// walks the INVERSE reference graph towards roots: within a process it
// finds the scions whose objects lead to the suspect; across processes it
// asks each such scion's holder process to back-trace the holders of the
// corresponding stub. If no walk reaches a local root, the suspect is
// garbage and its scions are deleted (the acyclic collector then unravels
// the objects).
//
// The walk is a chain of remote procedure calls; the visited set carried
// along is the per-detection state the paper criticizes ("requires
// processes to keep state about detections on course"), here materialized
// in the trace itself. The simulation executes the recursion synchronously
// and counts one request and one reply per inter-process hop.
type Backtracer struct {
	World *World
	Stats BacktraceStats
}

// BacktraceStats counts baseline activity.
type BacktraceStats struct {
	Traces          uint64
	Messages        uint64 // request + reply messages
	MaxVisited      int    // largest visited set over all traces
	ScionsDeleted   uint64
	ObjectsSwept    uint64
	StubSetMessages uint64
	Rounds          uint64
}

// NewBacktracer builds the baseline over a world.
func NewBacktracer(w *World) *Backtracer {
	return &Backtracer{World: w}
}

// TraceSuspect back-traces from the given object and reports whether any
// local root was found behind it. The object must belong to node.
func (b *Backtracer) TraceSuspect(node ids.NodeID, obj ids.ObjID) (rootFound bool, err error) {
	b.Stats.Traces++
	visited := make(map[ids.RefID]struct{})
	found, err := b.traceAt(node, obj, visited)
	if len(visited) > b.Stats.MaxVisited {
		b.Stats.MaxVisited = len(visited)
	}
	return found, err
}

// traceAt is the per-process back-trace step for one object.
func (b *Backtracer) traceAt(node ids.NodeID, obj ids.ObjID, visited map[ids.RefID]struct{}) (bool, error) {
	p, err := b.World.proc(node)
	if err != nil {
		return false, err
	}
	if !p.Heap.Contains(obj) {
		return false, nil
	}
	if _, ok := p.Heap.ReachableFromRoots()[obj]; ok {
		return true, nil
	}
	// Scions whose object leads (locally) to obj are the inverse edges out
	// of this process.
	for _, sc := range p.Table.Scions() {
		if _, leads := p.Heap.ReachableFrom(sc.Obj)[obj]; !leads {
			continue
		}
		ref := sc.RefID(node)
		if _, seen := visited[ref]; seen {
			continue
		}
		visited[ref] = struct{}{}

		// Cross-process hop: ask the holder process, counting the
		// request/reply pair, and execute the remote step in-process.
		b.Stats.Messages++ // request
		holderProc, err := b.World.proc(sc.Src)
		if err != nil {
			return false, err
		}
		target := ids.GlobalRef{Node: node, Obj: sc.Obj}
		found := false
		for holder := range holderProc.Heap.HoldersOf(target) {
			ok, err := b.traceAt(sc.Src, holder, visited)
			if err != nil {
				return false, err
			}
			if ok {
				found = true
				break
			}
		}
		b.Stats.Messages++ // reply
		if found {
			return true, nil
		}
	}
	return false, nil
}

// Round performs one collection round: back-trace every suspect (scion
// target not locally reachable), delete the scions of proven-garbage
// suspects, then run local collections.
func (b *Backtracer) Round() error {
	b.Stats.Rounds++
	type suspect struct {
		node ids.NodeID
		obj  ids.ObjID
	}
	var suspects []suspect
	for _, id := range b.World.Order {
		p := b.World.Procs[id]
		rootReach := p.Heap.ReachableFromRoots()
		for _, obj := range p.Table.ScionTargets() {
			if _, ok := rootReach[obj]; !ok {
				suspects = append(suspects, suspect{node: id, obj: obj})
			}
		}
	}
	for _, s := range suspects {
		found, err := b.TraceSuspect(s.node, s.obj)
		if err != nil {
			return err
		}
		if found {
			continue
		}
		p := b.World.Procs[s.node]
		for _, sc := range p.Table.ScionsForObject(s.obj) {
			p.Table.DeleteScion(sc.Src, sc.Obj)
			b.Stats.ScionsDeleted++
		}
	}
	swept, msgs := b.World.LGC()
	b.Stats.ObjectsSwept += uint64(swept)
	b.Stats.StubSetMessages += uint64(msgs)
	return nil
}

// RunUntilStable rounds until no progress, returning rounds executed.
func (b *Backtracer) RunUntilStable(maxRounds int) (int, error) {
	prev := -1
	for r := 0; r < maxRounds; r++ {
		cur := b.World.TotalObjects() + b.World.TotalScions()
		if cur == prev {
			return r, nil
		}
		prev = cur
		if err := b.Round(); err != nil {
			return r, err
		}
	}
	return maxRounds, nil
}
