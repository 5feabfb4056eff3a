package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dgc/internal/ids"
	"dgc/internal/obs"
	"dgc/internal/wire"
)

// maxFrame bounds a single TCP frame; snapshots are never shipped whole, so
// protocol messages stay small.
const maxFrame = 16 << 20

// batchChunk bounds the encoded size of one batch frame: a burst of
// traffic to one peer is split into frames of roughly this size, keeping
// per-frame memory and receiver latency bounded while still amortizing the
// syscall and framing cost over many messages.
const batchChunk = 256 << 10

// Dial backoff tuning: after a failed dial the peer is quarantined for
// dialBackoffBase doubling per consecutive failure up to dialBackoffMax,
// with ±50% jitter so a partitioned cluster does not thundering-herd one
// recovering process. Sends during the quarantine fail fast instead of
// re-dialing — a dead peer costs one connect attempt per backoff window,
// not one per CDM.
const (
	dialBackoffBase = 5 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
)

// peerConn is an established outbound connection with its buffered writer.
// The bufio layer coalesces the 4-byte header, envelope and body writes of a
// frame (and, for a burst, whole frame runs) into single syscalls.
type peerConn struct {
	c  net.Conn
	bw *bufio.Writer
}

// dialState tracks reconnect backoff for one peer.
type dialState struct {
	failures int
	until    time.Time // quarantine deadline; zero when healthy
}

// framePool recycles frame build buffers across sends.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// TCPEndpoint is a real-socket endpoint: it listens for inbound frames and
// dials peers on demand. Frames are 4-byte big-endian length prefixed wire
// envelopes: sender name followed by the encoded message.
//
// SendAll ships a burst as one wire.Batch frame per peer (chunked at
// batchChunk), so a flush of effects costs one syscall per peer instead of
// one per message.
type TCPEndpoint struct {
	self ids.NodeID

	mu       sync.Mutex
	h        Handler
	peers    map[ids.NodeID]string // node -> dial address
	conns    map[ids.NodeID]*peerConn
	dialing  map[ids.NodeID]*dialState
	accepted map[net.Conn]struct{} // inbound connections, closed on Close
	ln       net.Listener
	closed   bool

	writeMu sync.Mutex // serializes frame writes per endpoint

	// met is the endpoint's transport instrument block. Initialized to a
	// private registry so hot paths never nil-check; SetMetrics rebinds it to
	// a scraped registry. Atomic because send and read paths race with it.
	met atomic.Pointer[obs.TransportMetrics]

	wg sync.WaitGroup
}

var _ Endpoint = (*TCPEndpoint)(nil)

// ListenTCP starts an endpoint for node self on addr ("host:port", use port
// 0 for ephemeral). peers maps the other nodes' names to their dial
// addresses; it may be extended later with AddPeer.
func ListenTCP(self ids.NodeID, addr string, peers map[ids.NodeID]string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		self:     self,
		peers:    make(map[ids.NodeID]string, len(peers)),
		conns:    make(map[ids.NodeID]*peerConn),
		dialing:  make(map[ids.NodeID]*dialState),
		accepted: make(map[net.Conn]struct{}),
		ln:       ln,
	}
	e.met.Store(obs.NewTransportMetrics(obs.NewRegistry()))
	for n, a := range peers {
		e.peers[n] = a
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's listening address (useful with port 0).
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// AddPeer registers or updates a peer's dial address and clears any dial
// backoff (the address change is fresh information).
func (e *TCPEndpoint) AddPeer(node ids.NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers[node] = addr
	delete(e.dialing, node)
}

// Self implements Endpoint.
func (e *TCPEndpoint) Self() ids.NodeID { return e.self }

// SetMetrics rebinds the endpoint's transport instruments (typically to a
// registry served by /metrics). A nil argument is ignored.
func (e *TCPEndpoint) SetMetrics(tm *obs.TransportMetrics) {
	if tm != nil {
		e.met.Store(tm)
	}
}

// SetHandler implements Endpoint.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.h = h
}

// Send writes one message as one frame. A failed write tears down the
// cached connection and retries once with a fresh dial; a second failure is
// returned (and may be treated as message loss by callers).
func (e *TCPEndpoint) Send(to ids.NodeID, msg wire.Message) error {
	if msg == nil {
		return errors.New("transport: nil message")
	}
	met := e.met.Load()
	bp := framePool.Get().(*[]byte)
	frame, err := e.buildFrame((*bp)[:0], msg)
	if err != nil {
		framePool.Put(bp)
		met.SendErrors.Inc()
		return err
	}
	err = e.writeFrameRetry(to, frame)
	if err != nil {
		met.SendErrors.Inc()
	} else {
		met.BytesSent.Add(uint64(len(frame)))
		if b, ok := msg.(*wire.Batch); ok {
			met.BatchesSent.Inc()
			met.MsgsSent.Add(uint64(len(b.Msgs)))
		} else {
			met.MsgsSent.Inc()
		}
	}
	*bp = frame[:0]
	framePool.Put(bp)
	return err
}

func (e *TCPEndpoint) writeFrameRetry(to ids.NodeID, frame []byte) error {
	if err := e.writeFrame(to, frame); err != nil {
		e.dropConn(to)
		return e.writeFrame(to, frame)
	}
	return nil
}

// buildFrame appends the framed encoding of msg to buf: 4-byte big-endian
// payload length, sender name, encoded message.
func (e *TCPEndpoint) buildFrame(buf []byte, msg wire.Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = appendLenString(buf, string(e.self))
	buf = wire.AppendEncode(buf, msg)
	payload := len(buf) - start - 4
	if payload > maxFrame {
		return buf[:start], fmt.Errorf("transport: frame too large (%d bytes)", payload)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(payload))
	return buf, nil
}

// writeFrame writes one pre-built frame to the peer's buffered connection
// and flushes. The flush error (not just the buffered-write error) is
// returned so callers see connection failures synchronously and can redial.
func (e *TCPEndpoint) writeFrame(to ids.NodeID, frame []byte) error {
	pc, err := e.connTo(to)
	if err != nil {
		return err
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if _, err := pc.bw.Write(frame); err != nil {
		return err
	}
	return pc.bw.Flush()
}

// SendAll implements Endpoint: the messages are grouped by destination,
// each peer's in the order given, and each peer's group ships as batch
// frames of bounded size, destinations in sorted order. A lone message
// skips the batch wrapper. Write failures follow Send: one redial retry,
// then that frame is dropped (the protocol stack tolerates loss, and dial
// backoff curbs retries).
func (e *TCPEndpoint) SendAll(outs []Envelope) {
	switch len(outs) {
	case 0:
		return
	case 1:
		_ = e.Send(outs[0].To, outs[0].Msg)
		return
	}
	byPeer := make(map[ids.NodeID][]wire.Message)
	for _, o := range outs {
		if o.Msg != nil {
			byPeer[o.To] = append(byPeer[o.To], o.Msg)
		}
	}
	dests := make([]ids.NodeID, 0, len(byPeer))
	for to := range byPeer {
		dests = append(dests, to)
	}
	ids.SortNodeIDs(dests)
	for _, to := range dests {
		for msgs := byPeer[to]; len(msgs) > 0; {
			n, size := 1, wire.EncodedSize(msgs[0])
			for n < len(msgs) && size < batchChunk {
				size += wire.EncodedSize(msgs[n])
				n++
			}
			if n == 1 {
				_ = e.Send(to, msgs[0])
			} else {
				_ = e.Send(to, &wire.Batch{Msgs: msgs[:n]})
			}
			msgs = msgs[n:]
		}
	}
}

// connTo returns the cached connection to the peer, dialing if needed.
// While the peer is in dial backoff, it fails fast without touching the
// network.
func (e *TCPEndpoint) connTo(to ids.NodeID) (*peerConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("transport: endpoint closed")
	}
	if pc, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return pc, nil
	}
	addr, ok := e.peers[to]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("transport: unknown peer %s", to)
	}
	if ds := e.dialing[to]; ds != nil && time.Now().Before(ds.until) {
		until := ds.until
		e.mu.Unlock()
		return nil, fmt.Errorf("transport: peer %s in dial backoff for %v", to, time.Until(until).Round(time.Millisecond))
	}
	e.mu.Unlock()

	e.met.Load().Dials.Inc()
	c, err := net.Dial("tcp", addr)

	e.mu.Lock()
	if err != nil {
		e.met.Load().DialFailures.Inc()
		ds := e.dialing[to]
		if ds == nil {
			ds = &dialState{}
			e.dialing[to] = ds
		}
		ds.failures++
		ds.until = time.Now().Add(backoffDelay(ds.failures))
		e.mu.Unlock()
		return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
	}
	delete(e.dialing, to)
	if e.closed {
		e.mu.Unlock()
		c.Close()
		return nil, errors.New("transport: endpoint closed")
	}
	if prev, ok := e.conns[to]; ok {
		// Lost a race with another Send; keep the first connection.
		e.mu.Unlock()
		c.Close()
		return prev, nil
	}
	pc := &peerConn{c: c, bw: bufio.NewWriterSize(c, 64<<10)}
	e.conns[to] = pc
	e.mu.Unlock()
	return pc, nil
}

// backoffDelay returns the quarantine for the n-th consecutive dial failure:
// exponential from dialBackoffBase, capped at dialBackoffMax, jittered to
// 50–100% of the nominal value.
func backoffDelay(failures int) time.Duration {
	d := dialBackoffBase
	for i := 1; i < failures && d < dialBackoffMax; i++ {
		d *= 2
	}
	if d > dialBackoffMax {
		d = dialBackoffMax
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

func (e *TCPEndpoint) dropConn(to ids.NodeID) {
	e.mu.Lock()
	if pc, ok := e.conns[to]; ok {
		delete(e.conns, to)
		pc.c.Close()
		e.met.Load().ConnsDropped.Inc()
	}
	e.mu.Unlock()
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.accepted[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.accepted, conn)
		e.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	hdr := make([]byte, 4)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr)
		if n == 0 || n > maxFrame {
			return // protocol violation; drop the connection
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		met := e.met.Load()
		met.FramesReceived.Inc()
		met.BytesReceived.Add(uint64(4 + n))
		from, rest, ok := readLenString(payload)
		if !ok {
			met.DecodeErrors.Inc()
			return
		}
		msg, err := wire.Decode(rest)
		if err != nil {
			met.DecodeErrors.Inc()
			continue // malformed message: datagram semantics, skip it
		}
		e.mu.Lock()
		h := e.h
		e.mu.Unlock()
		if h == nil {
			met.MsgsDropped.Inc()
			continue
		}
		// Batches are a framing construct: unpack and deliver individually,
		// preserving order. Nested batches are rejected by the decoder.
		// The handler's responses to the whole batch go out in one SendAll,
		// so one inbound batch costs at most one outbound batch per peer.
		var outs []Envelope
		if b, ok := msg.(*wire.Batch); ok {
			met.MsgsReceived.Add(uint64(len(b.Msgs)))
			for _, sub := range b.Msgs {
				outs = append(outs, h(ids.NodeID(from), sub)...)
			}
		} else {
			met.MsgsReceived.Inc()
			outs = h(ids.NodeID(from), msg)
		}
		e.SendAll(outs)
	}
}

// Close implements Endpoint: it stops the listener, closes every outbound
// and inbound connection, and joins the accept and read goroutines so no
// readLoop outlives the endpoint.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.h = nil
	conns := make([]net.Conn, 0, len(e.conns)+len(e.accepted))
	for _, pc := range e.conns {
		conns = append(conns, pc.c)
	}
	for c := range e.accepted {
		conns = append(conns, c)
	}
	e.conns = map[ids.NodeID]*peerConn{}
	e.mu.Unlock()

	err := e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
	return err
}

func appendLenString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readLenString(data []byte) (s string, rest []byte, ok bool) {
	n, w := binary.Uvarint(data)
	if w <= 0 || n > uint64(len(data)-w) {
		return "", nil, false
	}
	return string(data[w : w+int(n)]), data[w+int(n):], true
}
