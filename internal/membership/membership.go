// Package membership maintains each node's view of the cluster: a versioned
// member directory (node id, transport address, incarnation, state)
// propagated by gossip piggybacked on existing protocol traffic plus a
// periodic anti-entropy exchange, with phi-accrual-style suspicion driving
// alive → suspect → dead transitions from observed message inter-arrival
// times.
//
// The directory is a CRDT-ish map: records merge by (incarnation,
// state-precedence), so every order of gossip delivery converges to the same
// view. A node refutes its own suspicion by bumping its incarnation; death
// is sticky and only a strictly higher incarnation (a restarted holder)
// revives a member. The deterministic simulator never enables membership —
// its directory is implicitly static — so simulation fingerprints are
// untouched.
package membership

import (
	"sort"

	"dgc/internal/ids"
)

// State is one member's lifecycle position. The numeric order IS the merge
// precedence at equal incarnation: a later state always wins, so `dead`
// dominates everything and a same-incarnation `alive` can never un-suspect
// a member (refutation requires an incarnation bump, as in SWIM).
type State uint8

const (
	// Joining: registered in the directory but not yet heard from.
	Joining State = iota + 1
	// Alive: traffic observed (or gossip says so).
	Alive
	// Suspect: silent past the failure detector's adaptive threshold.
	Suspect
	// Draining: departing voluntarily; hands its references off first.
	Draining
	// Dead: declared failed (or cleanly departed). Scions held on its
	// behalf are reclaimed once its lease runs out.
	Dead
)

var stateNames = map[State]string{
	Joining:  "joining",
	Alive:    "alive",
	Suspect:  "suspect",
	Draining: "draining",
	Dead:     "dead",
}

func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return "unknown"
}

// Member is one directory record.
type Member struct {
	Node        ids.NodeID
	Addr        string
	Incarnation uint64
	State       State
}

// Transition reports one record's state change, for journaling and metrics.
type Transition struct {
	Member Member
	Prev   State // zero when the member was just discovered
}

// Config tunes the tracker. All durations are logical ticks of the owning
// node's clock.
type Config struct {
	// GossipEvery is the anti-entropy period: every GossipEvery ticks the
	// full directory is pushed to one peer in rotation, restating state
	// that piggybacked gossip may have lost. Default 4.
	GossipEvery uint64
	// SuspectAfter is the silence floor before suspicion. The effective
	// threshold per peer is max(SuspectAfter, 4× its smoothed message
	// inter-arrival gap) — the phi-accrual idea of scaling suspicion to
	// observed cadence, integer-arithmetic flavored. Default 16.
	SuspectAfter uint64
	// DeadAfter is how long a member stays suspect before it is declared
	// dead. Default 24.
	DeadAfter uint64
	// LeaseTicks is the scion lease length: a dead holder's scions are
	// reclaimed only once it has also been silent this long (see
	// refs.HolderLeases). Default 240.
	LeaseTicks uint64
	// DrainLinger is how many ticks a draining node lingers after its
	// lease handoffs are sent before declaring itself dead (departed),
	// giving the handoffs and final gossip time to flush. Default 8.
	DrainLinger uint64
}

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.GossipEvery == 0 {
		c.GossipEvery = 4
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 16
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 24
	}
	if c.LeaseTicks == 0 {
		c.LeaseTicks = 240
	}
	if c.DrainLinger == 0 {
		c.DrainLinger = 8
	}
	return c
}

// Tracker is one node's membership state: the directory plus the local
// failure detector. Not safe for concurrent use; it lives inside the
// protocol machine and is driven by machine inputs only.
type Tracker struct {
	cfg     Config
	self    ids.NodeID
	version uint64
	members map[ids.NodeID]*Member

	// lastHeard / meanGap feed the failure detector: the tick a message
	// from each peer last arrived and the smoothed inter-arrival gap
	// (EWMA, integer arithmetic: mean ← (3·mean + gap)/4).
	lastHeard map[ids.NodeID]uint64
	meanGap   map[ids.NodeID]uint64

	suspectSince map[ids.NodeID]uint64
	drainStarted uint64
	heardAny     bool

	// addrDirty accumulates records whose transport address is new or
	// changed; the driver drains it and reprograms its endpoint.
	addrDirty []Member

	cursor     int    // anti-entropy rotation position (non-dead peers)
	deadCursor int    // rotation position of the dead-peer probe
	pushes     uint64 // anti-entropy pushes issued, for probe scheduling
}

// NewTracker builds a tracker whose own record starts joining at
// incarnation 0. addr may be empty until the transport address is known
// (SetSelfAddr).
func NewTracker(self ids.NodeID, addr string, cfg Config) *Tracker {
	t := &Tracker{
		cfg:          cfg.WithDefaults(),
		self:         self,
		version:      1,
		members:      make(map[ids.NodeID]*Member),
		lastHeard:    make(map[ids.NodeID]uint64),
		meanGap:      make(map[ids.NodeID]uint64),
		suspectSince: make(map[ids.NodeID]uint64),
	}
	t.members[self] = &Member{Node: self, Addr: addr, State: Joining}
	return t
}

// Config returns the tracker's effective (defaulted) configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Version counts directory mutations; gossip is worth sending to a peer
// whose last push predates it.
func (t *Tracker) Version() uint64 { return t.version }

// Self returns this node's own record.
func (t *Tracker) Self() Member { return *t.members[t.self] }

// SetSelfAddr records this node's advertised transport address.
func (t *Tracker) SetSelfAddr(addr string) {
	me := t.members[t.self]
	if addr == "" || me.Addr == addr {
		return
	}
	me.Addr = addr
	t.version++
}

// SeedPeer registers a peer as joining at incarnation 0 (static wiring,
// `dgcctl up`, a join RPC). The peer counts as heard now so the failure
// detector gives it a full silence window to come up. Seeding an already
// known peer only updates its address.
func (t *Tracker) SeedPeer(node ids.NodeID, addr string, now uint64) *Transition {
	if node == t.self {
		t.SetSelfAddr(addr)
		return nil
	}
	if m, ok := t.members[node]; ok {
		if addr != "" && m.Addr != addr {
			m.Addr = addr
			t.version++
			t.addrDirty = append(t.addrDirty, *m)
		}
		return nil
	}
	m := &Member{Node: node, Addr: addr, State: Joining}
	t.members[node] = m
	t.lastHeard[node] = now
	t.version++
	if addr != "" {
		t.addrDirty = append(t.addrDirty, *m)
	}
	return &Transition{Member: *m}
}

// Observe records one inbound message from a peer: the failure detector's
// arrival stream. A joining or suspect peer flips back to alive; a dead one
// does not (death is refuted only by a higher incarnation via gossip).
func (t *Tracker) Observe(from ids.NodeID, now uint64) *Transition {
	m, ok := t.members[from]
	if !ok {
		return nil
	}
	if last, heard := t.lastHeard[from]; heard && now > last {
		gap := now - last
		if mean := t.meanGap[from]; mean == 0 {
			t.meanGap[from] = gap
		} else {
			t.meanGap[from] = (3*mean + gap) / 4
		}
	}
	t.lastHeard[from] = now
	t.heardAny = true
	if m.State != Joining && m.State != Suspect {
		return nil
	}
	prev := m.State
	m.State = Alive
	delete(t.suspectSince, from)
	t.version++
	return &Transition{Member: *m, Prev: prev}
}

// dominates reports whether record a supersedes record b.
func dominates(a, b Member) bool {
	if a.Incarnation != b.Incarnation {
		return a.Incarnation > b.Incarnation
	}
	return a.State > b.State
}

// Merge folds gossiped records into the directory and returns the state
// changes it caused, in input order. Records about self that claim suspicion
// or death are refuted by bumping our incarnation past theirs.
func (t *Tracker) Merge(records []Member, now uint64) []Transition {
	var trs []Transition
	for _, r := range records {
		if r.State < Joining || r.State > Dead {
			continue
		}
		if r.Node == t.self {
			if tr := t.mergeSelf(r); tr != nil {
				trs = append(trs, *tr)
			}
			continue
		}
		local, known := t.members[r.Node]
		if !known {
			m := &Member{Node: r.Node, Addr: r.Addr, Incarnation: r.Incarnation, State: r.State}
			t.members[r.Node] = m
			t.lastHeard[r.Node] = now
			if m.State == Suspect {
				t.suspectSince[r.Node] = now
			}
			t.version++
			if m.Addr != "" {
				t.addrDirty = append(t.addrDirty, *m)
			}
			trs = append(trs, Transition{Member: *m})
			continue
		}
		if r.Addr != "" && local.Addr == "" {
			local.Addr = r.Addr
			t.version++
			t.addrDirty = append(t.addrDirty, *local)
		}
		if !dominates(r, *local) {
			continue
		}
		prev := local.State
		local.Incarnation = r.Incarnation
		local.State = r.State
		if r.Addr != "" && local.Addr != r.Addr {
			local.Addr = r.Addr
			t.addrDirty = append(t.addrDirty, *local)
		}
		switch r.State {
		case Suspect:
			if _, ok := t.suspectSince[r.Node]; !ok {
				t.suspectSince[r.Node] = now
			}
		case Alive, Joining, Draining:
			// A higher incarnation revived (or re-announced) the member:
			// restart its silence window so the detector does not
			// instantly re-suspect it.
			delete(t.suspectSince, r.Node)
			t.lastHeard[r.Node] = now
		}
		t.version++
		if prev != local.State {
			trs = append(trs, Transition{Member: *local, Prev: prev})
		}
	}
	return trs
}

// mergeSelf handles a gossiped record about this node itself.
func (t *Tracker) mergeSelf(r Member) *Transition {
	me := t.members[t.self]
	if me.State == Draining || me.State == Dead {
		// Departure is self-managed; nothing others say changes it.
		return nil
	}
	if r.Incarnation < me.Incarnation {
		return nil
	}
	if r.State < Suspect {
		if r.Incarnation > me.Incarnation {
			// Someone remembers a later life of us (we restarted without
			// our old incarnation). Jump past it so our records dominate.
			me.Incarnation = r.Incarnation + 1
			t.version++
		}
		return nil
	}
	// Refute suspicion/death: a higher incarnation is the only thing that
	// overrides those states in every peer's merge.
	prev := me.State
	me.Incarnation = r.Incarnation + 1
	me.State = Alive
	t.version++
	if prev == Alive {
		return nil
	}
	return &Transition{Member: *me, Prev: prev}
}

// Tick runs the failure detector and self-state progression for one clock
// advance, returning the transitions in canonical member order.
func (t *Tracker) Tick(now uint64) []Transition {
	var trs []Transition
	me := t.members[t.self]
	if me.State == Joining && (len(t.members) == 1 || t.heardAny) {
		// First gossip round completed (or there is nobody to wait for).
		me.State = Alive
		t.version++
		trs = append(trs, Transition{Member: *me, Prev: Joining})
	}
	if me.State == Draining && t.drainStarted > 0 && now-t.drainStarted >= t.cfg.DrainLinger {
		me.State = Dead
		me.Incarnation++
		t.drainStarted = 0
		t.version++
		trs = append(trs, Transition{Member: *me, Prev: Draining})
	}
	for _, id := range t.canonical() {
		if id == t.self {
			continue
		}
		m := t.members[id]
		elapsed := now - t.lastHeard[id]
		threshold := t.cfg.SuspectAfter
		if adaptive := 4 * t.meanGap[id]; adaptive > threshold {
			threshold = adaptive
		}
		switch m.State {
		case Alive, Joining:
			if elapsed > threshold {
				prev := m.State
				m.State = Suspect
				t.suspectSince[id] = now
				t.version++
				trs = append(trs, Transition{Member: *m, Prev: prev})
			}
		case Suspect:
			if now-t.suspectSince[id] > t.cfg.DeadAfter {
				m.State = Dead
				delete(t.suspectSince, id)
				t.version++
				trs = append(trs, Transition{Member: *m, Prev: Suspect})
			}
		case Draining:
			// A drainer that crashes mid-drain still dies, just on a
			// longer horizon (it normally declares departure itself).
			if elapsed > threshold+t.cfg.DeadAfter {
				m.State = Dead
				t.version++
				trs = append(trs, Transition{Member: *m, Prev: Draining})
			}
		}
	}
	return trs
}

// BeginDrain moves this node to draining with an incarnation bump so the
// record dominates any concurrent suspicion. No-op when already departing.
func (t *Tracker) BeginDrain(now uint64) *Transition {
	me := t.members[t.self]
	if me.State == Draining || me.State == Dead {
		return nil
	}
	prev := me.State
	me.State = Draining
	me.Incarnation++
	t.drainStarted = now
	t.version++
	return &Transition{Member: *me, Prev: prev}
}

// State returns a member's current state (zero when unknown).
func (t *Tracker) State(node ids.NodeID) State {
	if m, ok := t.members[node]; ok {
		return m.State
	}
	return 0
}

// IsDead reports whether the directory has declared the node dead. Unknown
// nodes are not dead: a static-mesh peer outside the directory must keep
// working exactly as before membership existed.
func (t *Tracker) IsDead(node ids.NodeID) bool { return t.State(node) == Dead }

// Draining reports whether this node itself is departing.
func (t *Tracker) Draining() bool {
	s := t.members[t.self].State
	return s == Draining || s == Dead
}

// Snapshot returns every record in canonical node order.
func (t *Tracker) Snapshot() []Member {
	out := make([]Member, 0, len(t.members))
	for _, id := range t.canonical() {
		out = append(out, *t.members[id])
	}
	return out
}

// HasNewsFor reports whether the directory holds records strictly newer
// than the given ones (a member they lack, or a dominating record): the
// condition for answering a gossip push with our own.
func (t *Tracker) HasNewsFor(records []Member) bool {
	byNode := make(map[ids.NodeID]Member, len(records))
	for _, r := range records {
		byNode[r.Node] = r
	}
	for id, m := range t.members {
		r, ok := byNode[id]
		if !ok || dominates(*m, r) {
			return true
		}
	}
	return false
}

// NextGossipPeer returns the next anti-entropy target. The rotation runs
// through the non-dead peers in canonical order, but every fourth push (and
// whenever no live peer remains) targets a dead-declared peer instead: the
// refutation channel. Without it two sides of a healed partition that
// declared each other dead would each skip the other forever — dead is
// refutable only by the higher incarnation the probed node gossips back, so
// somebody has to keep talking to the dead. ok is false when there is no
// peer at all.
func (t *Tracker) NextGossipPeer() (ids.NodeID, bool) {
	t.pushes++
	if t.pushes%4 == 0 {
		if id, ok := t.nextPeer(&t.deadCursor, Dead); ok {
			return id, true
		}
	}
	if id, ok := t.nextPeer(&t.cursor, 0); ok {
		return id, true
	}
	return t.nextPeer(&t.deadCursor, Dead)
}

// nextPeer rotates cursor through the canonical order, returning the next
// peer whose state matches want (want == 0 means any non-dead state).
func (t *Tracker) nextPeer(cursor *int, want State) (ids.NodeID, bool) {
	order := t.canonical()
	for range order {
		id := order[*cursor%len(order)]
		*cursor++
		if id == t.self {
			continue
		}
		dead := t.members[id].State == Dead
		if (want == Dead) != dead {
			continue
		}
		return id, true
	}
	return "", false
}

// TakeAddrUpdates drains the records whose transport address was learned or
// changed since the last call; the driver applies them to its endpoint.
func (t *Tracker) TakeAddrUpdates() []Member {
	out := t.addrDirty
	t.addrDirty = nil
	return out
}

func (t *Tracker) canonical() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(t.members))
	for id := range t.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
