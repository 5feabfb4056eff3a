package ids

import (
	"slices"
	"sync"
	"sync/atomic"
)

// MaxNodes bounds a NodeTable: indices fit in 31 bits, so two of them and two
// flag bits pack into one 64-bit key word (see internal/core's algebra).
const MaxNodes = 1 << 31

// NodeTable assigns small dense integers to node names. A RefID is two node
// names and an integer; the CDM algebra keys its entries by the two names'
// indices and the object id, so the detection hot path compares, sorts and
// copies integers only. The table holds one slot per distinct node NAME — it
// is bounded by the cluster's size, not by how many references or objects a
// process has seen — and names are never released.
//
// Indices are process-local and MUST never appear on the wire: peers assign
// different indices to the same name.
//
// All methods are safe for concurrent use and reads are lock-free: the whole
// table is one immutable NodeSnapshot behind an atomic pointer, replaced
// copy-on-write under mu on first sight of a name. A name, its index and its
// rank are therefore published together: any index obtainable from Intern or
// Lookup is resolvable in every snapshot loaded afterwards.
type NodeTable struct {
	mu   sync.Mutex // serializes first sight of a name
	snap atomic.Pointer[NodeSnapshot]
}

// NodeSnapshot is an immutable view of a NodeTable. Snapshots only ever
// grow: a later snapshot resolves every index an earlier one did, to the same
// name. Ranks are NOT stable across snapshots — a new name shifts the rank of
// every name that sorts after it — so ranks order entries within one
// snapshot and are never stored.
type NodeSnapshot struct {
	names  []NodeID          // index -> name
	index  map[NodeID]uint32 // name -> index
	rank   []uint32          // index -> position of the name in sorted order
	byRank []NodeID          // names in sorted order
}

// NewNodeTable returns an empty table.
func NewNodeTable() *NodeTable {
	t := &NodeTable{}
	t.snap.Store(&NodeSnapshot{index: map[NodeID]uint32{}})
	return t
}

// Snapshot returns the current view.
func (t *NodeTable) Snapshot() *NodeSnapshot { return t.snap.Load() }

// Lookup returns the index of name without assigning one.
func (t *NodeTable) Lookup(name NodeID) (uint32, bool) {
	i, ok := t.snap.Load().index[name]
	return i, ok
}

// Intern returns the index of name, assigning the next one on first sight.
func (t *NodeTable) Intern(name NodeID) uint32 {
	if i, ok := t.snap.Load().index[name]; ok {
		return i
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	if i, ok := old.index[name]; ok {
		return i
	}
	n := len(old.names)
	if n >= MaxNodes {
		panic("ids: node table full")
	}
	next := &NodeSnapshot{
		names: append(old.names[:n:n], name),
		index: make(map[NodeID]uint32, n+1),
		rank:  make([]uint32, n+1),
	}
	for k, v := range old.index {
		next.index[k] = v
	}
	next.index[name] = uint32(n)
	pos, _ := slices.BinarySearch(old.byRank, name)
	next.byRank = slices.Insert(slices.Clone(old.byRank), pos, name)
	for i, r := range old.rank {
		if r >= uint32(pos) {
			r++
		}
		next.rank[i] = r
	}
	next.rank[n] = uint32(pos)
	t.snap.Store(next)
	return uint32(n)
}

// Len returns the number of names in the snapshot.
func (s *NodeSnapshot) Len() int { return len(s.names) }

// Name returns the name with index i. Panics on indices never assigned, like
// an out-of-range slice index.
func (s *NodeSnapshot) Name(i uint32) NodeID { return s.names[i] }

// Rank returns the position of name i in the sorted order of the snapshot's
// names: Rank(i) < Rank(j) exactly when Name(i) < Name(j).
func (s *NodeSnapshot) Rank(i uint32) uint32 { return s.rank[i] }

// ByRank is the inverse of Rank: the name at position r of the sorted order.
func (s *NodeSnapshot) ByRank(r uint32) NodeID { return s.byRank[r] }

// Names returns the snapshot's names in sorted order. The slice is shared
// and must not be modified.
func (s *NodeSnapshot) Names() []NodeID { return s.byRank }
