package admin

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"dgc/internal/ids"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// FaultEndpoint layers operator-driven fault injection over a transport
// endpoint: outbound message loss (drop rate), outbound delivery delay, and
// bidirectional partitions from named peers (or from everyone). It is the
// mechanism behind `dgcctl inject delay|drop|partition` — chaos the paper's
// loss-tolerance claims can be exercised against on a live cluster, not just
// under the simulator's seeded fault fabric.
//
// The wrapped endpoint is swappable (setInner) so a supervisor can carry one
// FaultEndpoint — and the operator's standing fault configuration — across a
// kill/restart of the underlying socket. All fault decisions happen at this
// layer; the inner endpoint and the protocol stack above see only ordinary
// loss and latency, which they tolerate by design.
type FaultEndpoint struct {
	mu      sync.Mutex
	inner   transport.Endpoint
	h       transport.Handler
	rng     *rand.Rand
	drop    float64
	delay   time.Duration
	part    map[ids.NodeID]struct{}
	isolate bool
	gen     uint64 // bumped on every fault change; expiry timers check it

	dropped uint64 // messages discarded by drop rate or partition, both ways
	delayed uint64 // messages deferred by the delay injector
}

// FaultStatus is the JSON view of a FaultEndpoint's current configuration
// and cumulative effect, reported in the status API.
type FaultStatus struct {
	DropRate  float64  `json:"drop_rate,omitempty"`
	DelayMS   int64    `json:"delay_ms,omitempty"`
	Partition []string `json:"partition,omitempty"`
	Isolate   bool     `json:"isolate,omitempty"`
	Dropped   uint64   `json:"dropped_total"`
	Delayed   uint64   `json:"delayed_total"`
}

// Active reports whether any fault is currently injected.
func (st FaultStatus) Active() bool {
	return st.DropRate > 0 || st.DelayMS > 0 || len(st.Partition) > 0 || st.Isolate
}

// dropSeed seeds the drop-rate coin, so which messages a given drop rate
// discards depends only on the traffic.
const dropSeed = 0

// NewFaultEndpoint wraps inner (which may be nil until setInner).
func NewFaultEndpoint(inner transport.Endpoint) *FaultEndpoint {
	return &FaultEndpoint{inner: inner, rng: rand.New(rand.NewSource(dropSeed))}
}

var _ transport.Endpoint = (*FaultEndpoint)(nil)

// setInner swaps the wrapped endpoint (nil detaches), re-installing the
// delivery shim when a handler is registered. Fault configuration persists
// across the swap.
func (e *FaultEndpoint) setInner(inner transport.Endpoint) {
	e.mu.Lock()
	e.inner = inner
	h := e.h
	e.mu.Unlock()
	if inner != nil && h != nil {
		inner.SetHandler(e.deliver)
	}
}

func (e *FaultEndpoint) innerEP() transport.Endpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inner
}

// Self implements transport.Endpoint.
func (e *FaultEndpoint) Self() ids.NodeID {
	if in := e.innerEP(); in != nil {
		return in.Self()
	}
	return ""
}

// SendAll implements transport.Endpoint, applying partition, drop-rate and
// delay injection on the outbound path. Dropped messages vanish silently —
// exactly how real loss looks to a sender. The survivors go to the inner
// endpoint in one SendAll, after the injected delay when one is set; the
// protocol tolerates the reordering a delay causes, which is the point of
// the fault.
func (e *FaultEndpoint) SendAll(outs []transport.Envelope) {
	e.mu.Lock()
	in := e.inner
	if in == nil {
		e.mu.Unlock()
		return
	}
	if e.drop > 0 || e.isolate || len(e.part) > 0 {
		kept := make([]transport.Envelope, 0, len(outs))
		for _, o := range outs {
			if e.blockedLocked(o.To) || (e.drop > 0 && e.rng.Float64() < e.drop) {
				e.dropped++
				continue
			}
			kept = append(kept, o)
		}
		outs = kept
	}
	d := e.delay
	if d > 0 {
		e.delayed += uint64(len(outs))
	}
	e.mu.Unlock()
	if len(outs) == 0 {
		return
	}
	if d > 0 {
		time.AfterFunc(d, func() { in.SendAll(outs) })
		return
	}
	in.SendAll(outs)
}

// SetHandler implements transport.Endpoint: the handler is wrapped so
// partitioned peers' inbound traffic is discarded at this layer.
func (e *FaultEndpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	e.h = h
	in := e.inner
	e.mu.Unlock()
	if in == nil {
		return
	}
	if h == nil {
		in.SetHandler(nil)
		return
	}
	in.SetHandler(e.deliver)
}

// deliver is the inbound shim: partition faults cut both directions.
func (e *FaultEndpoint) deliver(from ids.NodeID, msg wire.Message) []transport.Envelope {
	e.mu.Lock()
	h := e.h
	if e.blockedLocked(from) {
		e.dropped++
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()
	if h == nil {
		return nil
	}
	return h(from, msg)
}

// AddPeer forwards a peer dial-address registration to the inner endpoint
// when it supports one (the TCP transport does). This is the path
// gossip-learned addresses take from the runtime through the fault layer to
// the socket's dial table.
func (e *FaultEndpoint) AddPeer(peer ids.NodeID, addr string) {
	if ap, ok := e.innerEP().(interface{ AddPeer(ids.NodeID, string) }); ok {
		ap.AddPeer(peer, addr)
	}
}

// Close implements transport.Endpoint.
func (e *FaultEndpoint) Close() error {
	if in := e.innerEP(); in != nil {
		return in.Close()
	}
	return nil
}

func (e *FaultEndpoint) blockedLocked(peer ids.NodeID) bool {
	if e.isolate {
		return true
	}
	_, cut := e.part[peer]
	return cut
}

// SetDrop injects outbound message loss at the given rate (0..1). A non-zero
// ttl reverts the rate to zero after it elapses, unless reconfigured since.
func (e *FaultEndpoint) SetDrop(rate float64, ttl time.Duration) {
	e.mutate(ttl, func() { e.drop = rate }, func() { e.drop = 0 })
}

// SetDelay injects a fixed outbound delivery delay. A non-zero ttl reverts
// it, unless reconfigured since.
func (e *FaultEndpoint) SetDelay(d, ttl time.Duration) {
	e.mutate(ttl, func() { e.delay = d }, func() { e.delay = 0 })
}

// SetPartition cuts traffic to and from the named peers — or, when isolate
// is true (or the peer list is empty), from every peer. A non-zero ttl heals
// the partition after it elapses, unless reconfigured since.
func (e *FaultEndpoint) SetPartition(peers []ids.NodeID, isolate bool, ttl time.Duration) {
	e.mutate(ttl, func() {
		e.isolate = isolate || len(peers) == 0
		e.part = make(map[ids.NodeID]struct{}, len(peers))
		for _, p := range peers {
			e.part[p] = struct{}{}
		}
	}, func() {
		e.isolate = false
		e.part = nil
	})
}

// Heal clears every injected fault.
func (e *FaultEndpoint) Heal() {
	e.mutate(0, func() {
		e.drop = 0
		e.delay = 0
		e.part = nil
		e.isolate = false
	}, nil)
}

// mutate applies a fault change under the lock and, when ttl > 0, schedules
// revert — guarded by a generation counter so a newer injection is never
// clobbered by an older expiry.
func (e *FaultEndpoint) mutate(ttl time.Duration, apply, revert func()) {
	e.mu.Lock()
	apply()
	e.gen++
	gen := e.gen
	e.mu.Unlock()
	if ttl <= 0 || revert == nil {
		return
	}
	time.AfterFunc(ttl, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.gen == gen {
			revert()
			e.gen++
		}
	})
}

// FaultStatus returns the endpoint's current fault configuration and
// cumulative drop/delay counts.
func (e *FaultEndpoint) FaultStatus() FaultStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := FaultStatus{
		DropRate: e.drop,
		DelayMS:  e.delay.Milliseconds(),
		Isolate:  e.isolate,
		Dropped:  e.dropped,
		Delayed:  e.delayed,
	}
	for p := range e.part {
		st.Partition = append(st.Partition, string(p))
	}
	if len(st.Partition) > 1 {
		sort.Strings(st.Partition)
	}
	return st
}
