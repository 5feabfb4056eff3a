package transport

import (
	"fmt"
	"math/rand"
	"sync"

	"dgc/internal/ids"
	"dgc/internal/obs"
	"dgc/internal/wire"
)

// Faults configures the in-process fabric's fault injection. All randomness
// derives from the seeded generator of the owning Network, so runs are
// reproducible.
type Faults struct {
	// LossRate is the probability in [0,1] that a message is dropped.
	LossRate float64
	// DupRate is the probability that a message is enqueued twice.
	DupRate float64
	// ReorderRate is the probability that a message is inserted at a random
	// queue position instead of the tail.
	ReorderRate float64
	// Affects restricts fault injection to messages of the given kinds;
	// empty means all kinds are affected.
	Affects []wire.Kind
}

func (f Faults) affects(k wire.Kind) bool {
	if len(f.Affects) == 0 {
		return true
	}
	for _, a := range f.Affects {
		if a == k {
			return true
		}
	}
	return false
}

type envelope struct {
	from, to ids.NodeID
	msg      wire.Message
}

// Network is the deterministic in-memory fabric. Messages are queued on
// SendAll and delivered when the owner pumps with Step or Drain; handlers run
// inline in the pumping goroutine and return the messages they send.
type Network struct {
	mu        sync.Mutex
	endpoints map[ids.NodeID]*InprocEndpoint
	queue     []envelope
	faults    Faults
	rng       *rand.Rand

	// Stats, guarded by mu.
	sent      map[wire.Kind]uint64
	delivered map[wire.Kind]uint64
	dropped   map[wire.Kind]uint64
	bytes     uint64 // encoded size of sent messages (accounting only)

	// met, when non-nil, mirrors the fabric counters into an observability
	// instrument block (one block for the whole fabric). Guarded by mu.
	met *obs.TransportMetrics
}

// NewNetwork returns a fabric seeded for reproducible fault injection.
func NewNetwork(seed int64) *Network {
	return &Network{
		endpoints: make(map[ids.NodeID]*InprocEndpoint),
		rng:       rand.New(rand.NewSource(seed)),
		sent:      make(map[wire.Kind]uint64),
		delivered: make(map[wire.Kind]uint64),
		dropped:   make(map[wire.Kind]uint64),
	}
}

// SetFaults installs the fault plan. Safe to call between pumping rounds.
func (n *Network) SetFaults(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
}

// SetMetrics mirrors the fabric's counters into a transport instrument block
// (nil disables). Safe to call between pumping rounds.
func (n *Network) SetMetrics(tm *obs.TransportMetrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.met = tm
}

// Endpoint returns (creating if needed) the endpoint for the given node.
func (n *Network) Endpoint(id ids.NodeID) *InprocEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	ep := &InprocEndpoint{net: n, self: id}
	n.endpoints[id] = ep
	return ep
}

// Pending returns the number of queued, undelivered messages.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// Step delivers one message. It reports whether a message was delivered
// (false when the queue is empty or the destination has no handler — the
// message is then dropped, like a datagram to a dead process).
func (n *Network) Step() bool {
	n.mu.Lock()
	if len(n.queue) == 0 {
		n.mu.Unlock()
		return false
	}
	env := n.queue[0]
	n.queue = n.queue[1:]
	ep := n.endpoints[env.to]
	var h Handler
	if ep != nil {
		h = ep.handler()
	}
	if h == nil {
		n.dropped[env.msg.Kind()]++
		if n.met != nil {
			n.met.MsgsDropped.Inc()
		}
		n.mu.Unlock()
		return false
	}
	n.delivered[env.msg.Kind()]++
	if n.met != nil {
		n.met.MsgsReceived.Inc()
	}
	n.mu.Unlock()

	// Deliver outside the lock. The handler returns its response sends as
	// effects; they are enqueued here, after it returns, in the order the
	// handler produced them — the same queue evolution as the historical
	// re-entrant-Send contract, so schedules (and the fault-RNG stream)
	// are unchanged.
	ep.SendAll(h(env.from, env.msg))
	return true
}

// Drain pumps until the queue is empty or limit messages have been
// delivered (limit <= 0 means no limit). Returns the number of deliveries.
// Handlers sending new messages extend the drain, so Drain reaches global
// quiescence.
func (n *Network) Drain(limit int) int {
	delivered := 0
	for n.Pending() > 0 {
		if limit > 0 && delivered >= limit {
			break
		}
		if n.Step() {
			delivered++
		}
	}
	return delivered
}

// Counts reports per-kind sent/delivered/dropped counters.
func (n *Network) Counts() (sent, delivered, dropped map[wire.Kind]uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return cloneCounts(n.sent), cloneCounts(n.delivered), cloneCounts(n.dropped)
}

// BytesSent reports the total encoded size of all sent messages (including
// dropped ones): the traffic the protocol would put on a real network.
func (n *Network) BytesSent() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bytes
}

func cloneCounts(m map[wire.Kind]uint64) map[wire.Kind]uint64 {
	out := make(map[wire.Kind]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// send runs one message through accounting, fault injection and the queue.
func (n *Network) send(from, to ids.NodeID, msg wire.Message) error {
	if msg == nil {
		return fmt.Errorf("transport: nil message")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sent[msg.Kind()]++
	size := uint64(wire.EncodedSize(msg))
	n.bytes += size
	if n.met != nil {
		n.met.MsgsSent.Inc()
		n.met.BytesSent.Add(size)
	}

	if n.faults.affects(msg.Kind()) {
		if n.faults.LossRate > 0 && n.rng.Float64() < n.faults.LossRate {
			n.dropped[msg.Kind()]++
			if n.met != nil {
				n.met.MsgsDropped.Inc()
			}
			return nil // silently lost, as on a real network
		}
		copies := 1
		if n.faults.DupRate > 0 && n.rng.Float64() < n.faults.DupRate {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			n.enqueue(envelope{from: from, to: to, msg: msg})
		}
		return nil
	}
	n.enqueue(envelope{from: from, to: to, msg: msg})
	return nil
}

// enqueue appends or, under the reorder fault, inserts at a random position.
// Caller holds mu.
func (n *Network) enqueue(env envelope) {
	if n.faults.affects(env.msg.Kind()) && n.faults.ReorderRate > 0 && n.rng.Float64() < n.faults.ReorderRate && len(n.queue) > 0 {
		pos := n.rng.Intn(len(n.queue) + 1)
		n.queue = append(n.queue, envelope{})
		copy(n.queue[pos+1:], n.queue[pos:])
		n.queue[pos] = env
		return
	}
	n.queue = append(n.queue, env)
}

// InprocEndpoint attaches one node to a Network.
type InprocEndpoint struct {
	net  *Network
	self ids.NodeID

	mu sync.Mutex
	h  Handler
}

var _ Endpoint = (*InprocEndpoint)(nil)

// Self implements Endpoint.
func (e *InprocEndpoint) Self() ids.NodeID { return e.self }

// SendAll implements Endpoint: the messages go to the shared queue one by
// one, in the order given, so the queue evolves exactly as the caller
// produced them.
func (e *InprocEndpoint) SendAll(outs []Envelope) {
	for _, o := range outs {
		_ = e.net.send(e.self, o.To, o.Msg)
	}
}

// SetHandler implements Endpoint.
func (e *InprocEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.h = h
}

func (e *InprocEndpoint) handler() Handler {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.h
}

// Close implements Endpoint: the endpoint stops receiving (its queue entries
// are dropped at delivery time).
func (e *InprocEndpoint) Close() error {
	e.SetHandler(nil)
	return nil
}
