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
//   - a fan-out hub: subscribers receive events on buffered channels with
//     non-blocking delivery — a slow consumer is evicted (its channel
//     closed) rather than ever blocking the emitting hot path.
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
	KindScionCreated
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
	// KindPartialReturn records an aggregation-mode partial result returned
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
	KindScionCreated:   "scion-created",
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

// Subscription is one live tap on a Log's event stream. Events arrive on
// Events() in emission order. Delivery is non-blocking on the emitter's
// side: when the subscriber's buffer fills, the subscription is evicted —
// its channel closes and Evicted reports true — so a stalled consumer can
// never block the protocol hot path. An evicted consumer resumes by
// re-subscribing and backfilling with Since.
type Subscription struct {
	log *Log
	ch  chan Event
	// evicted/closed are guarded by log.mu.
	evicted bool
	closed  bool
}

// Events returns the subscription's delivery channel. It is closed when the
// subscription is evicted or Close is called.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Evicted reports whether the log evicted this subscription for falling
// behind (as opposed to an explicit Close).
func (s *Subscription) Evicted() bool {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return s.evicted
}

// Close detaches the subscription and closes its channel. Idempotent; safe
// after eviction.
func (s *Subscription) Close() {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.log.closeSubLocked(s, false)
}

// JournalStats is a point-in-time report of a Log's journal mechanics, the
// source of the dgc_trace_* metrics.
type JournalStats struct {
	// Emitted is the number of events ever sequenced (Total).
	Emitted uint64
	// RingDropped is the number of events evicted by the ring bound.
	RingDropped uint64
	// Subscribers is the number of live subscriptions.
	Subscribers int
	// SubscriberEvictions counts subscriptions evicted for falling behind.
	SubscriberEvictions uint64
	// MaxLag is the deepest live subscriber backlog (buffered, undelivered
	// events) at the time of the call.
	MaxLag int
}

// Log is a bounded ring of events shared by any number of nodes. The zero
// value is unusable; create with New.
type Log struct {
	mu      sync.Mutex
	buf     []Event // circular once full: oldest at head, not index 0
	head    int     // index of the oldest retained event when len(buf) == cap
	cap     int
	seq     uint64
	dropped uint64        // events evicted by the ring bound
	filter  map[Kind]bool // nil = all kinds

	subs      []*Subscription
	evictions uint64 // subscriptions evicted for falling behind
}

// forEachLocked visits the retained events oldest first (caller holds l.mu).
func (l *Log) forEachLocked(fn func(Event)) {
	for _, e := range l.buf[l.head:] {
		fn(e)
	}
	for _, e := range l.buf[:l.head] {
		fn(e)
	}
}

// New returns a log retaining the most recent capacity events (minimum 16).
func New(capacity int) *Log {
	if capacity < 16 {
		capacity = 16
	}
	return &Log{cap: capacity}
}

// Only restricts the log to the given kinds (replacing any earlier filter);
// calling with no kinds removes the filter.
func (l *Log) Only(kinds ...Kind) *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(kinds) == 0 {
		l.filter = nil
		return l
	}
	l.filter = make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		l.filter[k] = true
	}
	return l
}

// Emit records an event with no causal trace id. Safe for concurrent use.
func (l *Log) Emit(node ids.NodeID, kind Kind, format string, args ...any) {
	l.EmitTraced(node, kind, 0, format, args...)
}

// EmitTraced records an event carrying a detection's causal trace id. Safe
// for concurrent use; never blocks on subscribers (slow ones are evicted).
func (l *Log) EmitTraced(node ids.NodeID, kind Kind, traceID uint64, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.filter != nil && !l.filter[kind] {
		return
	}
	l.seq++
	e := Event{Seq: l.seq, Node: node, Kind: kind, Trace: traceID, At: time.Now(),
		Detail: fmt.Sprintf(format, args...)}
	// O(1) ring store: overwrite the oldest slot in place — never a
	// whole-buffer shift, which would put an O(capacity) memmove on the
	// protocol hot path once the journal fills.
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.head] = e
		l.head++
		if l.head == l.cap {
			l.head = 0
		}
		l.dropped++
	}
	// Fan out without ever blocking: a full subscriber buffer means the
	// consumer fell a whole buffer behind — evict it (close the channel) and
	// let it resume via Since, rather than stall the protocol hot path.
	for i := 0; i < len(l.subs); {
		s := l.subs[i]
		select {
		case s.ch <- e:
			i++
		default:
			l.evictions++
			l.closeSubLocked(s, true)
			// closeSubLocked swapped the tail into position i; revisit it.
		}
	}
}

// closeSubLocked detaches s from the log (caller holds l.mu). evicted marks
// involuntary removal.
func (l *Log) closeSubLocked(s *Subscription, evicted bool) {
	if s.closed {
		return
	}
	s.closed = true
	s.evicted = evicted
	for i, sub := range l.subs {
		if sub == s {
			last := len(l.subs) - 1
			l.subs[i] = l.subs[last]
			l.subs[last] = nil
			l.subs = l.subs[:last]
			break
		}
	}
	close(s.ch)
}

// Subscribe taps the live event stream with a delivery buffer of at least
// 16 events. See Subscription for the eviction contract.
func (l *Log) Subscribe(buffer int) *Subscription {
	if buffer < 16 {
		buffer = 16
	}
	s := &Subscription{log: l, ch: make(chan Event, buffer)}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs = append(l.subs, s)
	return s
}

// Since returns the retained events with sequence numbers greater than
// after, oldest first, plus the number of matching events the ring has
// already evicted (0 when the resume is gapless). after=0 replays the full
// retained history.
func (l *Log) Since(after uint64) (events []Event, missed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) > 0 {
		if first := l.buf[l.head].Seq; after+1 < first {
			missed = first - 1 - after
		}
	} else if after < l.seq {
		missed = l.seq - after
	}
	l.forEachLocked(func(e Event) {
		if e.Seq > after {
			events = append(events, e)
		}
	})
	return events, missed
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

// Total returns the number of events ever emitted (including evicted and
// filtered-in only).
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Stats reports the journal's mechanics for the dgc_trace_* metrics.
func (l *Log) Stats() JournalStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := JournalStats{
		Emitted:             l.seq,
		RingDropped:         l.dropped,
		Subscribers:         len(l.subs),
		SubscriberEvictions: l.evictions,
	}
	for _, s := range l.subs {
		if lag := len(s.ch); lag > st.MaxLag {
			st.MaxLag = lag
		}
	}
	return st
}

// Snapshot returns the retained events, oldest first. When the ring has
// evicted events, a synthetic KindDropped event (Seq 0) heads the slice
// stating how many are missing.
func (l *Log) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf)+1)
	if l.dropped > 0 {
		out = append(out, Event{Kind: KindDropped, Detail: fmt.Sprintf("%d earlier events evicted", l.dropped)})
	}
	l.forEachLocked(func(e Event) { out = append(out, e) })
	return out
}

// OfKind returns the retained events of one kind, oldest first.
func (l *Log) OfKind(kind Kind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	l.forEachLocked(func(e Event) {
		if e.Kind == kind {
			out = append(out, e)
		}
	})
	return out
}
