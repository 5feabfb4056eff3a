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
	buf = snapshot.AppendString(buf, string(m.id))
	buf = binary.AppendUvarint(buf, m.clock)
	buf = binary.AppendUvarint(buf, m.snapVersion)
	buf = binary.AppendUvarint(buf, 0) // reserved: format 1 kept a detection-round cursor here

	buf = binary.AppendUvarint(buf, uint64(len(heapBlob)))
	buf = append(buf, heapBlob...)

	stubs := m.table.Stubs()
	buf = binary.AppendUvarint(buf, uint64(len(stubs)))
	for _, s := range stubs {
		buf = snapshot.AppendString(buf, string(s.Target.Node))
		buf = binary.AppendUvarint(buf, uint64(s.Target.Obj))
		buf = binary.AppendUvarint(buf, s.IC)
	}
	scions := m.table.Scions()
	buf = binary.AppendUvarint(buf, uint64(len(scions)))
	for _, s := range scions {
		buf = snapshot.AppendString(buf, string(s.Src))
		buf = binary.AppendUvarint(buf, uint64(s.Obj))
		buf = binary.AppendUvarint(buf, s.IC)
	}

	out, in := m.table.SeqState()
	for _, entries := range [][]refs.SeqEntry{out, in} {
		buf = binary.AppendUvarint(buf, uint64(len(entries)))
		for _, e := range entries {
			buf = snapshot.AppendString(buf, string(e.Node))
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
	r := snapshot.NewReader(data)
	if string(r.Bytes(len(persistMagic))) != persistMagic {
		return nil, fmt.Errorf("node: Restore: bad magic")
	}
	id := ids.NodeID(r.Str())
	clock := r.Uvarint()
	snapVersion := r.Uvarint()
	_ = r.Uvarint() // reserved

	heapBlob := r.Bytes(r.Count())
	if r.Err() != nil {
		return nil, fmt.Errorf("node: Restore: %w", r.Err())
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

	nStubs := r.Count()
	for i := 0; i < nStubs && r.Err() == nil; i++ {
		tgt := ids.GlobalRef{Node: ids.NodeID(r.Str()), Obj: ids.ObjID(r.Uvarint())}
		m.table.RestoreStub(tgt, r.Uvarint())
	}
	nScions := r.Count()
	for i := 0; i < nScions && r.Err() == nil; i++ {
		src := ids.NodeID(r.Str())
		obj := ids.ObjID(r.Uvarint())
		m.table.RestoreScion(src, obj, r.Uvarint())
	}

	var seqs [2][]refs.SeqEntry
	for s := 0; s < 2; s++ {
		cnt := r.Count()
		for i := 0; i < cnt && r.Err() == nil; i++ {
			seqs[s] = append(seqs[s], refs.SeqEntry{Node: ids.NodeID(r.Str()), Seq: r.Uvarint()})
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("node: Restore: %w", r.Err())
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("node: Restore: %d trailing bytes", r.Len())
	}
	m.table.RestoreSeqState(seqs[0], seqs[1])
	return m, nil
}
