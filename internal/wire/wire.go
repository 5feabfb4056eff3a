// Package wire defines every message exchanged between processes — remote
// invocation, reference-listing (CreateScion / NewSetStubs), cycle detection
// (CDM / DeleteScion) and the baseline collectors' traffic — together with a
// compact, self-describing binary encoding used by the TCP transport.
//
// The in-process transport passes Message values directly; encoding is only
// exercised on real sockets and in its own tests, keeping the deterministic
// simulation fast.
package wire

import (
	"fmt"
	"sync"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. The numeric values are part of the wire format.
const (
	KindInvokeRequest Kind = iota + 1
	KindInvokeReply
	KindCreateScion
	KindCreateScionAck
	KindNewSetStubs
	KindCDM
	KindDeleteScion
	KindHughesStamp
	KindHughesThreshold
	KindBacktraceRequest
	KindBacktraceReply
	KindBatch
	KindCredit
	KindBatchCDM
	KindGossip
	KindLeaseHandoff
)

// CollectorKinds returns the kinds that make up the garbage collector's own
// protocol: reference listing (NewSetStubs) and cycle detection (CDM,
// BatchCDM, DeleteScion). These are the messages whose loss, duplication and
// reordering the paper claims to tolerate, so fault injectors target them,
// and the ones an experiment counts as collector cost. TestEveryKindIsClassified
// fails when a new kind is in neither this list nor one of the others.
func CollectorKinds() []Kind {
	return []Kind{KindNewSetStubs, KindCDM, KindDeleteScion, KindBatchCDM}
}

// String returns the protocol name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInvokeRequest:
		return "InvokeRequest"
	case KindInvokeReply:
		return "InvokeReply"
	case KindCreateScion:
		return "CreateScion"
	case KindCreateScionAck:
		return "CreateScionAck"
	case KindNewSetStubs:
		return "NewSetStubs"
	case KindCDM:
		return "CDM"
	case KindDeleteScion:
		return "DeleteScion"
	case KindHughesStamp:
		return "HughesStamp"
	case KindHughesThreshold:
		return "HughesThreshold"
	case KindBacktraceRequest:
		return "BacktraceRequest"
	case KindBacktraceReply:
		return "BacktraceReply"
	case KindBatch:
		return "Batch"
	case KindCredit:
		return "Credit"
	case KindBatchCDM:
		return "BatchCDM"
	case KindGossip:
		return "Gossip"
	case KindLeaseHandoff:
		return "LeaseHandoff"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is implemented by every wire message.
type Message interface {
	Kind() Kind
	// encode appends the message body (without the kind tag) to buf.
	encode(buf []byte) []byte
}

// encPool recycles encode scratch buffers. Buffers grow to the largest
// message they have carried and are reused across Encode/EncodedSize/frame
// building, so steady-state encoding performs exactly one allocation (the
// returned exact-size slice) — and zero when callers use AppendEncode.
var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// getEncBuf returns a pooled scratch buffer with at least sizeHint capacity.
func getEncBuf(sizeHint int) *[]byte {
	bp := encPool.Get().(*[]byte)
	if cap(*bp) < sizeHint {
		*bp = make([]byte, 0, sizeHint)
	}
	return bp
}

func putEncBuf(bp *[]byte) {
	*bp = (*bp)[:0]
	encPool.Put(bp)
}

// AppendEncode serializes a message with its kind tag, appending to buf.
// This is the zero-allocation path used by the TCP frame builder; Encode
// wraps it for callers that want a fresh slice.
func AppendEncode(buf []byte, m Message) []byte {
	buf = append(buf, byte(m.Kind()))
	return m.encode(buf)
}

// Encode serializes a message with its kind tag. The returned slice is
// exactly sized; encoding scratch comes from a pool.
func Encode(m Message) []byte {
	bp := getEncBuf(64)
	scratch := AppendEncode((*bp)[:0], m)
	out := make([]byte, len(scratch))
	copy(out, scratch)
	*bp = scratch
	putEncBuf(bp)
	return out
}

// EncodedSize returns len(Encode(m)) without allocating: the transports use
// it for traffic accounting and frame sizing.
func EncodedSize(m Message) int {
	// Hot message kinds answer analytically (the +1 is the kind byte);
	// everything else pays one pooled encode walk.
	if s, ok := m.(interface{ encodedSize() int }); ok {
		return 1 + s.encodedSize()
	}
	bp := getEncBuf(64)
	n := len(AppendEncode((*bp)[:0], m))
	putEncBuf(bp)
	return n
}

// Decode parses a message produced by Encode.
func Decode(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	r := &reader{data: data, pos: 1}
	var m Message
	switch Kind(data[0]) {
	case KindInvokeRequest:
		m = decodeInvokeRequest(r)
	case KindInvokeReply:
		m = decodeInvokeReply(r)
	case KindCreateScion:
		m = decodeCreateScion(r)
	case KindCreateScionAck:
		m = decodeCreateScionAck(r)
	case KindNewSetStubs:
		m = decodeNewSetStubs(r)
	case KindCDM:
		m = decodeCDM(r)
	case KindDeleteScion:
		m = decodeDeleteScion(r)
	case KindHughesStamp:
		m = decodeHughesStamp(r)
	case KindHughesThreshold:
		m = decodeHughesThreshold(r)
	case KindBacktraceRequest:
		m = decodeBacktraceRequest(r)
	case KindBacktraceReply:
		m = decodeBacktraceReply(r)
	case KindBatch:
		m = decodeBatch(r)
	case KindCredit:
		m = decodeCredit(r)
	case KindBatchCDM:
		m = decodeBatchCDM(r)
	case KindGossip:
		m = decodeGossip(r)
	case KindLeaseHandoff:
		m = decodeLeaseHandoff(r)
	default:
		return nil, fmt.Errorf("wire: unknown kind %d", data[0])
	}
	if r.err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", Kind(data[0]), r.err)
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %s", len(data)-r.pos, Kind(data[0]))
	}
	return m, nil
}
