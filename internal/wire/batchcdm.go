package wire

import (
	"math"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// BatchSection is one detection's slice of a BatchCDM: the detection
// identity, its causal trace id and its algebra. Sections are independent —
// a receiver processes each exactly as it would a standalone CDM carrying
// the same algebra — so batching is a pure transport optimization.
type BatchSection struct {
	Det   core.DetectionID
	Trace uint64
	// Entries is the flattened algebra in canonical reference order
	// (FlattenAlg's contract). Decoded sections always carry entries;
	// in-process sections carry src instead and leave Entries nil until a
	// codec needs them.
	Entries []CDMEntry

	// src is the unflattened algebra for in-process deliveries, with the
	// same sharing contract as CDM.src: receivers treat it as immutable.
	// Zero on decoded sections.
	src core.Alg
}

// NewBatchSection builds a lazily-flattened section around an algebra
// (shared, not copied — the algebra must not be mutated afterwards).
func NewBatchSection(det core.DetectionID, trace uint64, alg core.Alg) BatchSection {
	return BatchSection{Det: det, Trace: trace, src: alg}
}

// MergeAlgInto merges the section's algebra into a, with core.Alg.Merge's
// semantics. In-process sections merge the sender's dense algebra directly;
// decoded sections rebuild an algebra first.
func (s *BatchSection) MergeAlgInto(a core.Alg) (changed, conflict bool) {
	if s.src != (core.Alg{}) {
		return a.Merge(s.src)
	}
	return a.Merge(algFromEntries(s.Entries))
}

// Alg reconstructs the algebra carried by the section.
func (s *BatchSection) Alg() core.Alg {
	if s.src != (core.Alg{}) {
		return s.src.Clone()
	}
	return algFromEntries(s.Entries)
}

// BatchCDM is a multi-candidate cycle detection message: every detection
// whose derivation exits a node via the same outgoing reference travels as
// one section of one message instead of one CDM each. On the wire the
// sections share a reference dictionary — the canonically-sorted union of
// every section's references, encoded once — and entries name references by
// dictionary index, so overlapping closures (the whole point of batching)
// pay for each reference string once per message, not once per section.
//
// With Return set the message is a hierarchical-aggregation partial result
// traveling back to each section's detection origin (the coordinator);
// Along is meaningless and zero in that case.
type BatchCDM struct {
	// Along is the reference every section travels along (along.Dst.Node is
	// the receiver), exactly as CDM.Along. Zero for Return messages.
	Along ids.RefID
	// Hops is the forwarding depth shared by the batch (sections split from
	// one delivery share one depth).
	Hops uint32
	// Return marks a partial-match result returning to the detections'
	// origin under the hierarchical aggregation mode.
	Return bool
	// Sections holds one entry per detection. Never empty on the wire: the
	// decoder rejects zero-section batches.
	Sections []BatchSection
}

// NewBatchCDM builds a batched detection message from lazily-flattened
// sections (NewBatchSection).
func NewBatchCDM(along ids.RefID, hops int, ret bool, sections []BatchSection) *BatchCDM {
	return &BatchCDM{Along: along, Hops: uint32(hops), Return: ret, Sections: sections}
}

// Kind implements Message.
func (*BatchCDM) Kind() Kind { return KindBatchCDM }

// batchEntry is one flattened section entry referencing the dictionary.
type batchEntry struct {
	idx      uint32
	inSource bool
	srcIC    uint64
	inTarget bool
	tgtIC    uint64
}

// batchFlat is the shared-dictionary wire form of a batch: the canonical
// union of every section's references plus per-section index entries.
type batchFlat struct {
	dict []ids.RefID
	secs [][]batchEntry
}

// flatten computes the shared-dictionary form. Section entry lists are in
// canonical reference order (FlattenAlg for in-process sections, enforced by
// the decoder for decoded ones), so dictionary indices are assigned with a
// single merge walk per section and no hashing. Not cached: encoding only
// happens at a real socket, where the walk is noise next to the write.
func (m *BatchCDM) flatten() batchFlat {
	lists := make([][]CDMEntry, len(m.Sections))
	total := 0
	for i := range m.Sections {
		s := &m.Sections[i]
		if s.Entries != nil || s.src == (core.Alg{}) {
			lists[i] = s.Entries
		} else {
			lists[i] = FlattenAlg(s.src)
		}
		total += len(lists[i])
	}
	all := make([]ids.RefID, 0, total)
	for _, l := range lists {
		for i := range l {
			all = append(all, l[i].Ref)
		}
	}
	ids.SortRefIDs(all)
	dict := make([]ids.RefID, 0, len(all))
	for i, r := range all {
		if i == 0 || all[i-1] != r {
			dict = append(dict, r)
		}
	}
	secs := make([][]batchEntry, len(lists))
	for i, l := range lists {
		es := make([]batchEntry, len(l))
		j := 0
		for k := range l {
			e := &l[k]
			for j < len(dict) && dict[j] != e.Ref {
				j++
			}
			es[k] = batchEntry{
				idx: uint32(j), inSource: e.InSource, srcIC: e.SrcIC,
				inTarget: e.InTarget, tgtIC: e.TgtIC,
			}
		}
		secs[i] = es
	}
	return batchFlat{dict: dict, secs: secs}
}

func (m *BatchCDM) encode(buf []byte) []byte {
	f := m.flatten()
	buf = putRefID(buf, m.Along)
	buf = putUint(buf, uint64(m.Hops))
	buf = putBool(buf, m.Return)
	buf = putUint(buf, uint64(len(f.dict)))
	for _, r := range f.dict {
		buf = putRefID(buf, r)
	}
	buf = putUint(buf, uint64(len(m.Sections)))
	for i := range m.Sections {
		s := &m.Sections[i]
		buf = putNode(buf, s.Det.Origin)
		buf = putUint(buf, s.Det.Seq)
		buf = putUint(buf, s.Trace)
		es := f.secs[i]
		buf = putUint(buf, uint64(len(es)))
		for _, e := range es {
			buf = putUint(buf, uint64(e.idx))
			buf = putBool(buf, e.inSource)
			buf = putUint(buf, e.srcIC)
			buf = putBool(buf, e.inTarget)
			buf = putUint(buf, e.tgtIC)
		}
	}
	return buf
}

// encodedSize returns len(m.encode(nil)) without writing bytes: one flatten
// walk, no buffer.
func (m *BatchCDM) encodedSize() int {
	f := m.flatten()
	n := refIDSize(m.Along) + uvarintSize(uint64(m.Hops)) + 1 +
		uvarintSize(uint64(len(f.dict)))
	for _, r := range f.dict {
		n += refIDSize(r)
	}
	n += uvarintSize(uint64(len(m.Sections)))
	for i := range m.Sections {
		s := &m.Sections[i]
		n += nodeSize(s.Det.Origin) + uvarintSize(s.Det.Seq) + uvarintSize(s.Trace)
		es := f.secs[i]
		n += uvarintSize(uint64(len(es)))
		for _, e := range es {
			n += uvarintSize(uint64(e.idx)) + 2 + uvarintSize(e.srcIC) + uvarintSize(e.tgtIC)
		}
	}
	return n
}

// decodeBatchCDM parses and validates a batch. The decoder enforces the
// canonical form the encoder produces — dictionary strictly sorted, every
// dictionary reference used, section entries strictly ascending by index,
// at least one section, at least one entry per section, no duplicate
// detection ids — so any accepted input re-encodes byte-identically.
func decodeBatchCDM(r *reader) *BatchCDM {
	m := &BatchCDM{Along: r.refID()}
	hops := r.uint()
	if hops > math.MaxUint32 {
		r.fail("hops %d overflows uint32", hops)
	}
	m.Hops = uint32(hops)
	m.Return = r.bool()
	nd := r.count()
	dict := make([]ids.RefID, 0, min(nd, 1024))
	for i := 0; i < nd && r.err == nil; i++ {
		ref := r.refID()
		if r.err != nil {
			break
		}
		if i > 0 && !dict[i-1].Less(ref) {
			r.fail("batch dictionary not in canonical order")
			break
		}
		dict = append(dict, ref)
	}
	if r.err != nil {
		return m
	}
	used := make([]bool, len(dict))
	ns := r.count()
	if ns == 0 && r.err == nil {
		r.fail("batch cdm with zero sections")
	}
	seen := make(map[core.DetectionID]struct{}, min(ns, 1024))
	for i := 0; i < ns && r.err == nil; i++ {
		s := BatchSection{
			Det:   core.DetectionID{Origin: r.node(), Seq: r.uint()},
			Trace: r.uint(),
		}
		ne := r.count()
		if ne == 0 && r.err == nil {
			r.fail("batch section with zero entries")
		}
		prev := -1
		for j := 0; j < ne && r.err == nil; j++ {
			idx := r.uint()
			if r.err != nil {
				break
			}
			if idx >= uint64(len(dict)) {
				r.fail("entry ref index %d out of dictionary range %d", idx, len(dict))
				break
			}
			if int(idx) <= prev {
				r.fail("section entries not in canonical order")
				break
			}
			prev = int(idx)
			used[idx] = true
			s.Entries = append(s.Entries, CDMEntry{
				Ref:      dict[idx],
				InSource: r.bool(),
				SrcIC:    r.uint(),
				InTarget: r.bool(),
				TgtIC:    r.uint(),
			})
		}
		if r.err != nil {
			break
		}
		if _, dup := seen[s.Det]; dup {
			r.fail("duplicate detection %s/%d in batch", s.Det.Origin, s.Det.Seq)
			break
		}
		seen[s.Det] = struct{}{}
		m.Sections = append(m.Sections, s)
	}
	if r.err == nil {
		for i, u := range used {
			if !u {
				r.fail("unused dictionary ref %d", i)
				break
			}
		}
	}
	return m
}
