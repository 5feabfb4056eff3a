package node

import (
	"encoding/binary"
	"fmt"

	"dgc/internal/ids"
	"dgc/internal/lgc"
	"dgc/internal/refs"
	"dgc/internal/snapshot"
)

// Persistence: a machine's collector state can be saved and restored across
// process restarts — the setting that motivates the paper ("when
// considering persistence, distributed garbage simply accumulates over
// time"). The persisted state is
//
//   - the heap (serialized with the binary snapshot codec),
//   - the stub and scion tables WITH their invocation counters (losing a
//     counter would fabricate or mask mutator activity for in-flight
//     detections; keeping them means detections spanning the restart abort
//     or proceed exactly as the paper's rules dictate),
//   - the reference-listing sequence numbers (a process restarting from
//     sequence zero would have its authoritative stub sets discarded as
//     stale by its peers),
//   - the logical clock and snapshot version.
//
// Volatile state is deliberately dropped: pending calls and exports (their
// pins die with the process; the scions they created self-heal through
// NewSetStubs), summaries (rebuilt at the next summarization; CDMs
// arriving before then are dropped by safety rule 1) and the CDM
// accumulators (droppable cache by construction).

const persistMagic = "DGCN\x01"

// Save serializes the machine's durable collector state.
func (m *Machine) Save() ([]byte, error) {
	heapBlob, err := (snapshot.BinaryCodec{}).Encode(m.heap)
	if err != nil {
		return nil, m.errf("Save: heap: %v", err)
	}

	buf := make([]byte, 0, len(heapBlob)+1024)
	buf = append(buf, persistMagic...)
	buf = putPStr(buf, string(m.id))
	buf = binary.AppendUvarint(buf, m.clock)
	buf = binary.AppendUvarint(buf, m.snapVersion)
	buf = binary.AppendUvarint(buf, 0) // reserved: format 1 kept a detection-round cursor here

	buf = binary.AppendUvarint(buf, uint64(len(heapBlob)))
	buf = append(buf, heapBlob...)

	stubs := m.table.Stubs()
	buf = binary.AppendUvarint(buf, uint64(len(stubs)))
	for _, s := range stubs {
		buf = putPStr(buf, string(s.Target.Node))
		buf = binary.AppendUvarint(buf, uint64(s.Target.Obj))
		buf = binary.AppendUvarint(buf, s.IC)
	}
	scions := m.table.Scions()
	buf = binary.AppendUvarint(buf, uint64(len(scions)))
	for _, s := range scions {
		buf = putPStr(buf, string(s.Src))
		buf = binary.AppendUvarint(buf, uint64(s.Obj))
		buf = binary.AppendUvarint(buf, s.IC)
	}

	out, in := m.table.SeqState()
	for _, entries := range [][]refs.SeqEntry{out, in} {
		buf = binary.AppendUvarint(buf, uint64(len(entries)))
		for _, e := range entries {
			buf = putPStr(buf, string(e.Node))
			buf = binary.AppendUvarint(buf, e.Seq)
		}
	}
	return buf, nil
}

// RestoreMachine reconstructs a protocol machine from state produced by
// Save. The machine resumes as if its process had merely been slow: peers'
// reference-listing state remains valid, in-flight detections involving it
// abort safely and restart later. Restore and RestoreLiveRuntime wrap the
// result in a stepped or a started Node.
func RestoreMachine(cfg Config, data []byte) (*Machine, error) {
	r := &pReader{data: data}
	if string(r.bytes(len(persistMagic))) != persistMagic {
		return nil, fmt.Errorf("node: Restore: bad magic")
	}
	id := ids.NodeID(r.str())
	clock := r.uvarint()
	snapVersion := r.uvarint()
	_ = r.uvarint() // reserved

	heapLen := r.uvarint()
	if heapLen > uint64(len(data)) {
		return nil, fmt.Errorf("node: Restore: implausible heap size %d", heapLen)
	}
	heapBlob := r.bytes(int(heapLen))
	if r.err != nil {
		return nil, fmt.Errorf("node: Restore: %w", r.err)
	}
	h, err := (snapshot.BinaryCodec{}).Decode(heapBlob)
	if err != nil {
		return nil, fmt.Errorf("node: Restore: heap: %w", err)
	}
	if h.Node() != id {
		return nil, fmt.Errorf("node: Restore: heap belongs to %s, state to %s", h.Node(), id)
	}

	m := NewMachine(id, cfg)
	m.clock = clock
	m.snapVersion = snapVersion
	m.heap = h
	m.lgc = lgc.New(m.heap, m.table)

	nStubs := r.count()
	for i := 0; i < nStubs && r.err == nil; i++ {
		tgt := ids.GlobalRef{Node: ids.NodeID(r.str()), Obj: ids.ObjID(r.uvarint())}
		m.table.RestoreStub(tgt, r.uvarint())
	}
	nScions := r.count()
	for i := 0; i < nScions && r.err == nil; i++ {
		src := ids.NodeID(r.str())
		obj := ids.ObjID(r.uvarint())
		m.table.RestoreScion(src, obj, r.uvarint())
	}

	var seqs [2][]refs.SeqEntry
	for s := 0; s < 2; s++ {
		cnt := r.count()
		for i := 0; i < cnt && r.err == nil; i++ {
			seqs[s] = append(seqs[s], refs.SeqEntry{Node: ids.NodeID(r.str()), Seq: r.uvarint()})
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("node: Restore: %w", r.err)
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("node: Restore: %d trailing bytes", len(data)-r.pos)
	}
	m.table.RestoreSeqState(seqs[0], seqs[1])
	return m, nil
}

// ---- tiny binary helpers (persist format only) ----

func putPStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type pReader struct {
	data []byte
	pos  int
	err  error
}

func (r *pReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.data[r.pos:])
	if w <= 0 {
		r.err = fmt.Errorf("truncated varint at %d", r.pos)
		return 0
	}
	r.pos += w
	return v
}

func (r *pReader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.data)) {
		r.err = fmt.Errorf("implausible count %d", v)
		return 0
	}
	return int(v)
}

func (r *pReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.err = fmt.Errorf("truncated bytes at %d (+%d)", r.pos, n)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *pReader) str() string {
	n := r.count()
	return string(r.bytes(n))
}
