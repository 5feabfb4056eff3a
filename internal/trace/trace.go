// Package trace provides the cluster's event journal: a bounded,
// thread-safe, sequenced log for observing the distributed collector at
// work — which node swept what, which CDMs were sent and handled with what
// outcome, which detections reached a verdict. The node layer emits events
// when a Log is configured; tests assert on event sequences, cmd/dgc-sim can
// dump them for debugging, and internal/admin streams them over
// /api/v1/events for dgcctl's cross-node detection timelines.
//
// The journal is three things at once:
//
//   - a monotonic sequence: every retained-or-evicted event carries a
//     1-based, gapless per-log sequence number, so consumers can resume
//     (Since) and detect truncation exactly;
//   - a bounded ring: the most recent events are retained, older ones are
//     evicted and reported via an explicit truncation marker;
//   - a wake-up: Wait hands a follower a channel that the next emit closes,
//     so a live stream is a loop of Since and Wait, and a follower that falls
//     behind the ring reads the truncation marker instead of blocking Emit.
//
// The ring holds fixed-size, pointer-free records, not text: an event's
// arguments are kept as integers and indices into a bounded per-log string
// table, and Detail is rendered from its format when the event is read
// (record.go). What a log retains is therefore a function of its capacity.
package trace

import (
	"fmt"
	"sync"
	"time"

	"dgc/internal/ids"
)

// Kind classifies events.
type Kind uint8

// Event kinds emitted by the node layer. Values are stable within a build
// but not a wire contract — the admin API serializes kinds by name.
const (
	KindLGC Kind = iota + 1
	KindSummarize
	KindDetectionStart
	KindCDMHandled
	KindCycleFound
	KindScionDeleted
	KindInvoke
	KindCustom
	// KindDropped marks the synthetic truncation event Snapshot prepends
	// (and /api/v1/events emits) when the ring has evicted events, so
	// consumers can tell the log is truncated.
	KindDropped
	// KindCDMSent records one cycle-detection message (or batch section)
	// leaving a node, with the destination edge in the detail.
	KindCDMSent
	// KindBatchCDM records a multi-section BatchCDM sent or received.
	KindBatchCDM
	// KindPartialReturn records a cut branch's accumulated view returned
	// toward the detection's origin.
	KindPartialReturn
	// KindRelaunch records the origin re-launching a detection's unresolved
	// residue after merging partial returns.
	KindRelaunch
	// KindDetectionEnd records a detection reaching a terminal outcome at a
	// node (cycle-found, aborted, race-dropped), closing its causal trace.
	KindDetectionEnd
	// KindMailboxDrop records an inbound message shed on mailbox overflow.
	KindMailboxDrop
	// KindFault records an operator fault-injection action (kill, restart,
	// delay, drop, partition, heal) against a node.
	KindFault
	// KindMemberJoin / KindMemberAlive / KindMemberSuspect / KindMemberDead /
	// KindMemberDrain record membership-directory transitions: a member
	// registered, confirmed alive, suspected by the failure detector,
	// declared dead (or departed), or beginning a voluntary drain.
	KindMemberJoin
	KindMemberAlive
	KindMemberSuspect
	KindMemberDead
	KindMemberDrain
	// KindLeaseHandoff records a draining holder migrating its references:
	// emitted by the drainer per referent owner, by the owner taking the
	// scions into custody, and again when custody is released.
	KindLeaseHandoff
	// KindLeaseReclaim records scions deleted because their holder was
	// declared dead and its lease ran out.
	KindLeaseReclaim
)

// kindNames is the canonical kind -> display-name table; parseKinds inverts
// it for the admin API's ?kind= filter.
var kindNames = map[Kind]string{
	KindLGC:            "lgc",
	KindSummarize:      "summarize",
	KindDetectionStart: "detection-start",
	KindCDMHandled:     "cdm",
	KindCycleFound:     "cycle-found",
	KindScionDeleted:   "scion-deleted",
	KindInvoke:         "invoke",
	KindCustom:         "custom",
	KindDropped:        "dropped",
	KindCDMSent:        "cdm-sent",
	KindBatchCDM:       "batch-cdm",
	KindPartialReturn:  "partial-return",
	KindRelaunch:       "relaunch",
	KindDetectionEnd:   "detection-end",
	KindMailboxDrop:    "mailbox-drop",
	KindFault:          "fault",
	KindMemberJoin:     "member-join",
	KindMemberAlive:    "member-alive",
	KindMemberSuspect:  "member-suspect",
	KindMemberDead:     "member-dead",
	KindMemberDrain:    "member-drain",
	KindLeaseHandoff:   "lease-handoff",
	KindLeaseReclaim:   "lease-reclaim",
}

// String returns the kind's display name.
func (k Kind) String() string {
	if name, ok := kindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a display name (as produced by Kind.String) back to
// its Kind. The second result is false for unknown names.
func ParseKind(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return k, true
		}
	}
	return 0, false
}

// Event is one recorded occurrence.
type Event struct {
	Seq  uint64 // per-log sequence number, 1-based, gapless
	Node ids.NodeID
	Kind Kind
	// Trace is the causal detection trace id the event belongs to (0 when
	// the event is not part of a detection's causal history).
	Trace uint64
	// At is the wall-clock emission time. Diagnostic only: nothing in the
	// protocol reads it, and the deterministic simulator's -trace output
	// renders events without it.
	At     time.Time
	Detail string
}

// String renders the event as one log line. The format is pinned by
// cmd/dgc-sim's -trace output; Trace and At are intentionally omitted.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s %s: %s", e.Seq, e.Node, e.Kind, e.Detail)
}

// Log is a bounded ring of events shared by any number of nodes. The zero
// value is unusable; create with New.
type Log struct {
	mu      sync.Mutex
	buf     []record // circular once full: oldest at head, not index 0
	head    int      // index of the oldest retained event when len(buf) == cap
	cap     int
	seq     uint64
	dropped uint64        // events evicted by the ring bound
	wake    chan struct{} // closed by the next emit; nil while nobody waits

	tab     tables
	strIdx  map[string]uint16
	formats map[string]*format
}

// New returns a log retaining the most recent capacity events (minimum 16).
func New(capacity int) *Log {
	if capacity < 16 {
		capacity = 16
	}
	return &Log{
		cap:     capacity,
		tab:     tables{shapes: []shape{{}}}, // index 0 is fallbackShape
		strIdx:  make(map[string]uint16),
		formats: make(map[string]*format),
	}
}

// firstSeqLocked is the sequence number of the oldest retained event.
func (l *Log) firstSeqLocked() uint64 { return l.seq - uint64(len(l.buf)) + 1 }

// readLocked copies the retained records with sequence numbers above after
// (and of kind, when kind is non-zero), oldest first, together with what
// rendering them needs, so the caller can render after releasing l.mu.
func (l *Log) readLocked(after uint64, kind Kind) view {
	v := view{tab: tables{strs: l.tab.strs, shapes: l.tab.shapes}}
	n, first := len(l.buf), l.firstSeqLocked()
	skip := 0
	if after >= first {
		skip = int(min(after-first+1, uint64(n)))
	}
	if kind == 0 {
		v.recs = make([]seqRecord, 0, n-skip)
	}
	for i := skip; i < n; i++ {
		r := &l.buf[(l.head+i)%n]
		if kind != 0 && r.kind != kind {
			continue
		}
		seq := first + uint64(i)
		if r.shape == fallbackShape {
			v.tab.texts = append(v.tab.texts, l.tab.text(seq))
		}
		v.recs = append(v.recs, seqRecord{seq: seq, rec: *r})
	}
	return v
}

// Emit records an event with no causal trace id. Safe for concurrent use.
func (l *Log) Emit(node ids.NodeID, kind Kind, format string, args ...any) {
	l.EmitTraced(node, kind, 0, format, args...)
}

// EmitTraced records an event carrying a detection's causal trace id. Safe
// for concurrent use; never blocks on a reader.
func (l *Log) EmitTraced(node ids.NodeID, kind Kind, traceID uint64, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	r := record{at: time.Now().UnixNano(), trace: traceID, kind: kind}
	if !l.pack(&r, node, format, args) {
		r.shape = fallbackShape
		l.tab.texts = append(l.tab.texts, text{seq: l.seq, node: node, detail: fmt.Sprintf(format, args...)})
	}
	// O(1) ring store: overwrite the oldest slot in place — never a
	// whole-buffer shift, which would put an O(capacity) memmove on the
	// protocol hot path once the journal fills. Until then the ring grows by
	// doubling and stops at exactly its capacity.
	if len(l.buf) < l.cap {
		if len(l.buf) == cap(l.buf) {
			grown := make([]record, len(l.buf), min(max(2*cap(l.buf), 64), l.cap))
			copy(grown, l.buf)
			l.buf = grown
		}
		l.buf = append(l.buf, r)
	} else {
		if l.buf[l.head].shape == fallbackShape {
			// The oldest text is the evicted record's. Zeroing it frees the
			// strings now; the slot goes when append next reallocates.
			l.tab.texts[0] = text{}
			l.tab.texts = l.tab.texts[1:]
		}
		l.buf[l.head] = r
		l.head++
		if l.head == l.cap {
			l.head = 0
		}
		l.dropped++
	}
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// closed is the channel Wait returns when there is nothing to wait for.
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Wait returns a channel that is closed once the log holds an event with a
// sequence number above after: already closed when it does, else closed by
// the next emit. A follower reads with Since(after) and then waits.
func (l *Log) Wait(after uint64) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq > after {
		return closed
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return l.wake
}

// Since returns the retained events with sequence numbers greater than
// after, oldest first, plus the number of matching events the ring has
// already evicted (0 when the resume is gapless). after=0 replays the full
// retained history.
func (l *Log) Since(after uint64) (events []Event, missed uint64) {
	l.mu.Lock()
	if len(l.buf) > 0 {
		if first := l.firstSeqLocked(); after < first-1 {
			missed = first - 1 - after
		}
	} else if after < l.seq {
		missed = l.seq - after
	}
	v := l.readLocked(after, 0)
	l.mu.Unlock()
	return v.events(nil), missed
}

// Dropped returns the number of events evicted by the ring bound since the
// log was created.
func (l *Log) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Total returns the number of events ever emitted, evicted ones included.
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Snapshot returns the retained events, oldest first. When the ring has
// evicted events, a synthetic KindDropped event (Seq 0) heads the slice
// stating how many are missing.
func (l *Log) Snapshot() []Event {
	l.mu.Lock()
	dropped := l.dropped
	v := l.readLocked(0, 0)
	l.mu.Unlock()
	out := make([]Event, 0, len(v.recs)+1)
	if dropped > 0 {
		out = append(out, Event{Kind: KindDropped, Detail: fmt.Sprintf("%d earlier events evicted", dropped)})
	}
	return v.events(out)
}

// OfKind returns the retained events of one kind, oldest first.
func (l *Log) OfKind(kind Kind) []Event {
	l.mu.Lock()
	v := l.readLocked(0, kind)
	l.mu.Unlock()
	return v.events(nil)
}
