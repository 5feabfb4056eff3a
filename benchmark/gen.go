package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/trace"
)

// pollEvery is the ring generator's round period: each round polls every
// outstanding garbage unit for reclamation in one With per node.
const pollEvery = 2 * time.Millisecond

// samples are the timed observations of one measured window: the harness
// cuts them off at each window boundary.
type samples struct {
	reclaims []float64 // ms, garbage unit t0 to last object gone
	invokes  []float64 // us, Invoke to reply
	links    []float64 // us, AcquireRemote to ack
	waits    []float64 // us, no-op With under load (traced pass)
}

// objRef is one object of a garbage unit, polled until it is gone.
type objRef struct {
	node int
	obj  ids.ObjID
	dead bool
}

// unit is one tracked piece of garbage: a distributed ring (slot >= 0) or one
// acyclic invoke argument (slot < 0). Its reclamation latency runs from t0 —
// the last head unrooted, or the argument unlinked — to the poll that finds
// its last object gone.
type unit struct {
	id   int32
	slot int
	objs []objRef
	refs []string // its cross-node references as RefID strings, the journal join key
	t0   time.Time
	span int32

	// Traced pass only: journal timestamps joined to this unit.
	starts []time.Time // detection-start with a candidate among refs
	founds []time.Time // cycle-found of such a detection (acyclic: scion dropped)
	done   time.Time
}

const (
	slotFree = iota
	slotLinking
	slotPending
)

// slot is one closed-loop garbage-ring position: it is refilled only when
// the ring it held has been reclaimed.
type slot struct {
	state     int
	order     []int
	heads     []ids.ObjID
	tails     []ids.ObjID
	u         *unit
	acks      atomic.Int32
	bad       atomic.Bool
	linkStart time.Time
	turns     int // rings this slot has had reclaimed
}

// load is the two generators and what they observed. Generator 1 (runRings)
// owns the ring slots and polls every garbage unit; generator 2 (runClient)
// is the invoke client. Both are closed loops.
type load struct {
	c    *cluster
	f    *fixture
	rec  *recorder // nil with tracing off
	seed int64

	stopping atomic.Bool // no new rings or invokes; outstanding work finishes
	nextUnit atomic.Int32

	attempted atomic.Int64
	failed    atomic.Int64

	// First-turn progress, for set-up: slots whose first ring was reclaimed,
	// invoke replies, tracked arguments swept.
	turned  atomic.Int64
	replies atomic.Int64
	swept   atomic.Int64

	mu       sync.Mutex
	cur      samples // observed since the last cut
	incoming []*unit // argument units handed from the client to the poller
	inFlight int     // units runRings holds: linking or awaiting reclamation
	failures []string

	// Owned by runRings.
	slots     []*slot
	units     []*unit // pending reclamation
	reclaimed []*unit // traced pass: kept for the stage join
	refUnit   map[string]*unit
	traceUnit map[uint64]*unit
	jseq      []uint64
	jmissed   uint64
}

func newLoad(c *cluster, f *fixture, rec *recorder, seed int64) *load {
	l := &load{c: c, f: f, rec: rec, seed: seed,
		refUnit: map[string]*unit{}, traceUnit: map[uint64]*unit{},
		jseq: make([]uint64, len(c.rts))}
	for i := range c.rts {
		l.jseq[i] = c.journal(i).Total()
	}
	for i := 0; i < c.sp.Slots; i++ {
		l.slots = append(l.slots, &slot{})
	}
	return l
}

func (l *load) fail(format string, args ...any) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.failures) < 8 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// observe appends v to one of l.cur's series.
func (l *load) observe(dst *[]float64, v float64) {
	l.mu.Lock()
	*dst = append(*dst, v)
	l.mu.Unlock()
}

// cut returns what was observed since the last cut and starts afresh.
func (l *load) cut() samples {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.cur
	l.cur = samples{}
	return s
}

// with is Mutator access to node n with a span around the call.
func (l *load) with(n int, parent, unit int32, fn func(m node.Mutator)) {
	sp := l.rec.begin("node.with", parent, unit)
	if err := l.c.rts[n].With(fn); err != nil {
		l.fail("With on %s: %v", l.c.names[n], err)
	}
	l.rec.end(sp)
}

// runRings is generator 1. It runs until quit; after stopping is set it only
// finishes what is outstanding.
func (l *load) runRings(quit <-chan struct{}) {
	in := newInputs(l.seed, l.c.sp.Name+"/rings")
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for round := 1; ; round++ {
		select {
		case <-quit:
			if l.rec != nil {
				l.drainJournals()
			}
			return
		case <-tick.C:
		}
		l.round(in)
		if l.rec != nil {
			if round%5 == 0 {
				l.probeMailbox(round / 5 % len(l.c.rts))
			}
			if round%25 == 0 {
				l.drainJournals()
			}
		}
	}
}

// round polls, unroots and refills: one With per node that has work.
func (l *load) round(in *inputs) {
	sp := l.c.sp
	l.mu.Lock()
	fresh := l.incoming
	l.incoming = nil
	l.inFlight += len(fresh)
	l.mu.Unlock()
	for _, u := range fresh {
		l.units = append(l.units, u)
		l.join(u)
	}

	var unroot, alloc []*slot
	for i, s := range l.slots {
		switch {
		case s.state == slotFree && !l.stopping.Load():
			s.order = in.ringOrder(sp.Nodes, sp.RingLen)
			s.heads = make([]ids.ObjID, sp.RingLen)
			s.tails = make([]ids.ObjID, sp.RingLen)
			s.u = &unit{id: l.nextUnit.Add(1), slot: i}
			s.u.span = l.rec.begin("unit", 0, s.u.id)
			s.acks.Store(0)
			s.bad.Store(false)
			alloc = append(alloc, s)
		case s.state == slotLinking && int(s.acks.Load()) == sp.RingLen:
			unroot = append(unroot, s)
		case s.state == slotLinking && time.Since(s.linkStart) > opTimeout:
			s.bad.Store(true)
			unroot = append(unroot, s)
		}
	}

	for n := range l.c.rts {
		var checks []*objRef
		for _, u := range l.units {
			for i := range u.objs {
				if o := &u.objs[i]; o.node == n && !o.dead {
					checks = append(checks, o)
				}
			}
		}
		if len(checks) == 0 && len(unroot) == 0 && len(alloc) == 0 {
			continue
		}
		l.with(n, 0, 0, func(m node.Mutator) {
			for _, o := range checks {
				o.dead = !m.Exists(o.obj)
			}
			for _, s := range unroot {
				for p, on := range s.order {
					if on == n {
						m.Unroot(s.heads[p])
					}
				}
			}
			for _, s := range alloc {
				for p, on := range s.order {
					if on == n {
						l.allocChain(m, s, p, in)
					}
				}
			}
		})
	}
	now := time.Now()

	live := l.units[:0]
	for _, u := range l.units {
		gone := true
		for i := range u.objs {
			gone = gone && u.objs[i].dead
		}
		if !gone {
			live = append(live, u)
			continue
		}
		l.observe(&l.cur.reclaims, float64(now.Sub(u.t0))/1e6)
		l.rec.end(u.span)
		if u.slot < 0 {
			l.swept.Add(1)
		} else {
			s := l.slots[u.slot]
			s.state = slotFree
			if s.turns++; s.turns == 1 {
				l.turned.Add(1)
			}
		}
		if l.rec != nil {
			u.done = now
			l.reclaimed = append(l.reclaimed, u)
		}
	}
	l.units = live

	for _, s := range unroot {
		if s.bad.Load() {
			// The ring never closed: its heads are unrooted so the pieces are
			// collected, but it is a failed operation, not a sample.
			l.fail("ring of unit %d did not link", s.u.id)
			l.rec.end(s.u.span)
			s.state = slotFree
			continue
		}
		s.u.t0 = now
		s.state = slotPending
		l.units = append(l.units, s.u)
	}
	for _, s := range alloc {
		s.state = slotLinking
		s.linkStart = now
		l.attempted.Add(1)
		for p := range s.order {
			l.acquire(s, p)
		}
	}

	outstanding := len(l.units)
	for _, s := range l.slots {
		if s.state == slotLinking {
			outstanding++
		}
	}
	l.mu.Lock()
	l.inFlight = outstanding
	l.mu.Unlock()
}

// firstTurn reports whether every closed loop has completed once.
func (l *load) firstTurn() bool {
	sp := l.c.sp
	return int(l.turned.Load()) == sp.Slots && l.replies.Load() > 0 &&
		(sp.TrackEvery == 0 || l.swept.Load() > 0)
}

// outstanding is the number of garbage units built but not yet reclaimed.
func (l *load) outstanding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inFlight + len(l.incoming)
}

// allocChain allocates ring position p of slot s (inside a With on its node).
func (l *load) allocChain(m node.Mutator, s *slot, p int, in *inputs) {
	n := s.order[p]
	prev := ids.ObjID(0)
	for k := 0; k < l.c.sp.chain(); k++ {
		o := m.Alloc(in.payload())
		s.u.objs = append(s.u.objs, objRef{node: n, obj: o})
		if k == 0 {
			s.heads[p] = o
			_ = m.Root(o) // cannot fail: o was just allocated
		} else {
			_ = m.Link(prev, o) // likewise
		}
		prev = o
	}
	s.tails[p] = prev
}

// acquire starts the link from ring position p to the next one; the ack
// callback stores the reference and counts the ack.
func (l *load) acquire(s *slot, p int) {
	next := (p + 1) % len(s.order)
	from := s.order[p]
	target := ids.GlobalRef{Node: l.c.names[s.order[next]], Obj: s.heads[next]}
	tail := s.tails[p]
	if l.rec != nil {
		s.u.refs = append(s.u.refs, ids.RefID{Src: l.c.names[from], Dst: target}.String())
		l.join(s.u)
	}
	sp := l.rec.begin("refs.acquire", s.u.span, s.u.id)
	start := time.Now()
	err := l.c.rts[from].AcquireRemote(target, func(m node.Mutator, ok bool) {
		if !ok || m.Store(tail, target) != nil {
			s.bad.Store(true)
		}
		l.rec.end(sp)
		l.observe(&l.cur.links, float64(time.Since(start))/1e3)
		s.acks.Add(1)
	})
	if err != nil {
		s.bad.Store(true)
		s.acks.Add(1)
	}
}

// join registers a unit's references for the journal join (traced pass).
func (l *load) join(u *unit) {
	for _, r := range u.refs {
		l.refUnit[r] = u
	}
}

// probeMailbox times a no-op With on node n while the load runs: the wait a
// mutator sees behind whatever the loop is doing.
func (l *load) probeMailbox(n int) {
	sp := l.rec.begin("node.probe", 0, 0)
	start := time.Now()
	_ = l.c.rts[n].With(func(node.Mutator) {})
	l.observe(&l.cur.waits, float64(time.Since(start))/1e3)
	l.rec.end(sp)
}

// drainJournals reads what every node journaled since the last call and
// joins detection-start, cycle-found and scion-deleted events to garbage
// units by their reference identifiers.
func (l *load) drainJournals() {
	var evs []trace.Event
	for i := range l.c.rts {
		got, missed := l.c.journal(i).Since(l.jseq[i])
		l.jmissed += missed
		if len(got) > 0 {
			l.jseq[i] = got[len(got)-1].Seq
		}
		for _, e := range got {
			switch e.Kind {
			case trace.KindDetectionStart, trace.KindCycleFound, trace.KindScionDeleted:
				evs = append(evs, e)
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
	for _, e := range evs {
		switch e.Kind {
		case trace.KindDetectionStart:
			if u := l.refUnit[field(e.Detail, "candidate=")]; u != nil {
				u.starts = append(u.starts, e.At)
				l.traceUnit[e.Trace] = u
			}
		case trace.KindCycleFound:
			if u := l.traceUnit[e.Trace]; u != nil {
				u.founds = append(u.founds, e.At)
			}
		case trace.KindScionDeleted:
			// The acyclic path has no detection: its "found" instant is the
			// owner dropping the scion on the holder's NewSetStubs.
			if u := l.refUnit[field(e.Detail, "ref=")]; u != nil && u.slot < 0 {
				u.starts = append(u.starts, e.At)
				u.founds = append(u.founds, e.At)
			}
		}
	}
}

// field extracts the value of a "key=value" token from a journal detail.
func field(detail, key string) string {
	i := strings.Index(detail, key)
	if i < 0 {
		return ""
	}
	v := detail[i+len(key):]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

// runClient is generator 2: one caller on node 0 that allocates two argument
// objects under its rooted holder, invokes noop on node 1 with them, and
// unlinks them when the reply arrives — then repeats: Burst calls back to
// back, then the next tick of its period. A ticker, not a sleep, sets the
// pace: a sleep's overshoot depends on what else the processor is doing, and
// the call rate must not.
func (l *load) runClient() {
	sp := l.c.sp
	in := newInputs(l.seed, sp.Name+"/client")
	rt := l.c.rts[0]
	holder, target := l.f.holder, l.f.target
	type reply struct {
		ok bool
		at time.Time
	}
	done := make(chan reply, 1)
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	pace := time.NewTicker(sp.Period)
	defer pace.Stop()
	for calls := 1; !l.stopping.Load(); calls++ {
		if (calls-1)%sp.Burst == 0 {
			<-pace.C
		}
		p1, p2 := in.payload(), in.payload()
		var a1, a2 ids.ObjID
		var ierr error
		replied := done // this call's channel: a reply that outlives its timeout must not reach a later call
		l.attempted.Add(1)
		span := l.rec.begin("node.invoke", 0, 0)
		start := time.Now()
		err := rt.With(func(m node.Mutator) {
			a1, a2 = m.Alloc(p1), m.Alloc(p2)
			_ = m.Link(holder, a1) // cannot fail: both ends exist
			_ = m.Link(holder, a2)
			args := []ids.GlobalRef{m.GlobalRef(a1), m.GlobalRef(a2)}
			ierr = m.Invoke(target, "noop", args, func(m node.Mutator, r node.Reply) {
				_ = m.Unlink(holder, a1)
				_ = m.Unlink(holder, a2)
				replied <- reply{r.OK, time.Now()}
			})
		})
		if err = firstErr(err, ierr); err != nil {
			l.fail("invoke: %v", err)
			time.Sleep(time.Millisecond) // a closed runtime must not make this a busy loop
			continue
		}
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
		timeout.Reset(opTimeout)
		select {
		case r := <-done:
			l.rec.end(span)
			if !r.ok {
				l.fail("invoke %d: reply not ok", calls)
				break
			}
			l.observe(&l.cur.invokes, float64(r.at.Sub(start))/1e3)
			l.replies.Add(1)
			if sp.TrackEvery > 0 && calls%sp.TrackEvery == 0 {
				u := &unit{id: l.nextUnit.Add(1), slot: -1, t0: r.at, objs: []objRef{{node: 0, obj: a1}}}
				if l.rec != nil {
					u.refs = []string{ids.RefID{Src: l.c.names[1], Dst: ids.GlobalRef{Node: l.c.names[0], Obj: a1}}.String()}
					u.span = l.rec.begin("unit", 0, u.id)
				}
				l.attempted.Add(1)
				l.mu.Lock()
				l.incoming = append(l.incoming, u)
				l.mu.Unlock()
			}
		case <-timeout.C:
			l.fail("invoke %d: no reply within %v", calls, opTimeout)
			done = make(chan reply, 1)
		}
	}
}
