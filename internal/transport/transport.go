// Package transport moves wire messages between processes.
//
// Two implementations are provided:
//
//   - Network / inproc endpoints: a deterministic in-memory message fabric
//     for simulation, with seeded fault injection (loss, duplication,
//     reordering, per-kind filters) and explicit pumping so tests are
//     reproducible;
//   - TCP endpoints: real sockets, one process per node, for the
//     distributed deployment (cmd/dgc-node). A connection opens with the
//     dialler's node name, then carries one length-prefixed frame per
//     message.
//
// Both deliver through the same Handler interface, so every layer above is
// transport-agnostic.
//
// Delivery follows an effect contract: a handler does not send while it
// runs — it returns the messages it wants transmitted, and the transport
// performs those sends after the handler has returned. This keeps handlers
// pure with respect to the transport (no re-entrant sends from the delivery
// context) and is what lets the node layer run as a state machine whose
// outputs are explicit effect lists.
package transport

import (
	"dgc/internal/ids"
	"dgc/internal/wire"
)

// Envelope pairs a destination with a message: the effect form of a send.
type Envelope struct {
	To  ids.NodeID
	Msg wire.Message
}

// Handler consumes one delivered message and returns the messages the
// receiving node wants transmitted in response (nil when there are none).
// The transport performs those sends on the node's behalf after the handler
// returns; implementations must not call Endpoint.SendAll from within the
// handler (that would re-enter the transport from its own delivery
// context). Ownership of the returned slice passes to the transport.
//
// Implementations must be safe for calls from the transport's delivery
// context (the pumping goroutine for inproc, a connection-reader goroutine
// for TCP).
type Handler func(from ids.NodeID, msg wire.Message) []Envelope

// Endpoint is one node's attachment to a transport.
type Endpoint interface {
	// Self returns the node this endpoint belongs to.
	Self() ids.NodeID
	// SendAll queues outs for delivery, each peer's messages in the order
	// given. It never blocks on a destination; delivery is asynchronous and
	// may fail silently (the whole protocol stack tolerates message loss).
	// The TCP endpoint writes one peer's messages with one flush. Ownership
	// of outs passes to the endpoint, which may reorder it across peers.
	SendAll(outs []Envelope)
	// SetHandler installs the delivery callback. Must be called before any
	// message can be delivered to this endpoint.
	SetHandler(h Handler)
	// Close detaches the endpoint.
	Close() error
}
