package ids

import (
	"sync"
	"sync/atomic"
)

// internChunkSize is the number of RefIDs per storage chunk. Chunked storage
// lets readers resolve ids without locks: a chunk's slots are written before
// the id is published, and the spine (the slice of chunk pointers) is
// replaced copy-on-write, so a published id always points at initialized
// memory.
const internChunkSize = 1024

// InternShards is the number of independent shards an Interner assigns ids
// from. A power of two, so the shard of an id is a mask and the local slot a
// shift. 16 shards keep first-sight assignment contention negligible for the
// node loops that share one process-global table (id assignment from
// different shards shares no lock and no cache line).
const (
	InternShards     = 16
	internShardMask  = InternShards - 1
	internShardShift = 4
)

type internChunk [internChunkSize]RefID

// internShard is one independent id space. Interleaved ids — global id =
// local*InternShards + shard — keep every shard's ids disjoint without any
// cross-shard coordination, at the price of holes: the set of assigned
// global ids is no longer dense. Callers that build id-indexed tables size
// them by Bound() and tolerate unassigned slots.
type internShard struct {
	mu    sync.Mutex // serializes id assignment within the shard
	idx   sync.Map   // RefID -> int32 (global id)
	spine atomic.Pointer[[]*internChunk]
	n     atomic.Int32 // published local length; local slots < n are immutable

	// Pad shards apart so two shards' assignment counters never share a
	// cache line under concurrent Intern storms.
	_ [64]byte
}

// Interner assigns small dense integers to reference identifiers. The CDM
// algebra keys every entry by a RefID — two strings and an integer — and the
// detection hot path clones, merges and matches algebras constantly; hashing
// and copying the string-bearing keys dominated those operations. Interning
// maps each distinct RefID to an int32 once, so the algebra can store dense
// entries, compare keys with integer comparisons and clone with memcpy.
//
// Identifiers are never released: the table grows monotonically with the set
// of distinct inter-process references a process has seen, which is bounded
// by the reference-listing tables it already keeps. Interned ids are a
// process-local compression and MUST never appear on the wire — peers'
// tables assign different ids to the same reference.
//
// Assignment is sharded InternShards ways by a hash of the reference, with
// interleaved id spaces (global id = local*InternShards + shardIndex), so
// concurrent first sights in different shards never contend — the former
// single assignment mutex serialized every node of an in-process cluster.
// Ids are NOT densely assigned across the table as a whole; Bound() gives
// the exclusive upper bound for id-indexed side tables.
//
// All methods are safe for concurrent use. Reads (Lookup, Ref, Len and the
// Intern fast path) are lock-free: each shard's id index is a sync.Map and
// reverse storage is reached through an atomic spine pointer. Only first
// sight of a reference takes its shard's write lock.
type Interner struct {
	shards [InternShards]internShard
}

// NewInterner returns an empty table.
func NewInterner() *Interner {
	t := &Interner{}
	for i := range t.shards {
		t.shards[i].spine.Store(&[]*internChunk{})
	}
	return t
}

// internHash is FNV-1a over the reference's fields, used only to pick a
// shard. Any fixed mixing works; FNV keeps it allocation-free.
func internHash(r RefID) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(r.Src); i++ {
		h ^= uint64(r.Src[i])
		h *= prime64
	}
	h ^= 0xFF
	h *= prime64
	for i := 0; i < len(r.Dst.Node); i++ {
		h ^= uint64(r.Dst.Node[i])
		h *= prime64
	}
	h ^= uint64(r.Dst.Obj)
	h *= prime64
	return h
}

// Intern returns the id for r, assigning the next free one in r's shard on
// first sight.
func (t *Interner) Intern(r RefID) int32 {
	si := int32(internHash(r) & internShardMask)
	s := &t.shards[si]
	if id, ok := s.idx.Load(r); ok {
		return id.(int32)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.idx.Load(r); ok {
		return id.(int32)
	}
	local := s.n.Load()
	spine := *s.spine.Load()
	if int(local) == len(spine)*internChunkSize {
		grown := make([]*internChunk, len(spine), len(spine)+1)
		copy(grown, spine)
		grown = append(grown, new(internChunk))
		s.spine.Store(&grown)
		spine = grown
	}
	// Publish in dependency order: the slot, then the length that makes
	// Ref accept the id, and only then the index entry through which other
	// goroutines' fast path can obtain the id. (Index first let a concurrent
	// Intern of the same r return an id Ref still rejected.)
	spine[int(local)/internChunkSize][int(local)%internChunkSize] = r
	id := local*InternShards + si
	s.n.Store(local + 1)
	s.idx.Store(r, id)
	return id
}

// Lookup returns the id for r without assigning one. ok is false when r has
// never been interned.
func (t *Interner) Lookup(r RefID) (int32, bool) {
	s := &t.shards[internHash(r)&internShardMask]
	if id, ok := s.idx.Load(r); ok {
		return id.(int32), true
	}
	return 0, false
}

// Ref returns the RefID for an id previously returned by Intern.
// Panics on ids never assigned, like an out-of-range slice index.
func (t *Interner) Ref(id int32) RefID {
	local := id >> internShardShift
	s := &t.shards[id&internShardMask]
	if id < 0 || local >= s.n.Load() {
		panic("ids: Ref of unassigned intern id")
	}
	spine := *s.spine.Load()
	return spine[int(local)/internChunkSize][int(local)%internChunkSize]
}

// Len returns the number of distinct references interned so far.
func (t *Interner) Len() int {
	total := 0
	for i := range t.shards {
		total += int(t.shards[i].n.Load())
	}
	return total
}

// ShardLens snapshots every shard's published id count. Shard counters are
// monotone, so a caller holding a snapshot can later detect growth shard by
// shard — the coverage check of id-indexed caches (see internal/core's
// canonical-rank cache).
func (t *Interner) ShardLens() [InternShards]int32 {
	var out [InternShards]int32
	for i := range t.shards {
		out[i] = t.shards[i].n.Load()
	}
	return out
}

// Bound returns an exclusive upper bound on the ids assigned so far: every
// id returned by Intern is < Bound(), but with sharded interleaved id
// spaces not every value below it is assigned. Side tables indexed by id
// size themselves with Bound and leave holes.
func (t *Interner) Bound() int32 {
	return InternBound(t.ShardLens())
}

// InternBound is Bound computed from a ShardLens snapshot.
func InternBound(lens [InternShards]int32) int32 {
	var bound int32
	for s, n := range lens {
		if n == 0 {
			continue
		}
		if b := (n-1)*InternShards + int32(s) + 1; b > bound {
			bound = b
		}
	}
	return bound
}
