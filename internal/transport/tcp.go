package transport

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dgc/internal/ids"
	"dgc/internal/obs"
	"dgc/internal/wire"
)

// maxFrame bounds one frame's message; snapshots are never shipped whole, so
// protocol messages stay small.
const maxFrame = 16 << 20

// maxName bounds the sender name that opens a connection.
const maxName = 255

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
// The bufio layer coalesces a burst's frames into single syscalls.
type peerConn struct {
	c  net.Conn
	bw *bufio.Writer
}

// dialState tracks reconnect backoff for one peer.
type dialState struct {
	failures int
	until    time.Time // quarantine deadline; zero when healthy
}

// framePool recycles burst build buffers across sends.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// TCPEndpoint is a real-socket endpoint: it listens for inbound connections
// and dials peers on demand. A connection opens with the dialler's node name
// (uvarint length, then the name); after it, each frame is one message:
// uvarint(len) followed by the message's wire encoding.
//
// SendAll writes each peer's messages with one flush, so a flush of effects
// costs one syscall per peer instead of one per message.
type TCPEndpoint struct {
	self ids.NodeID
	name []byte // the connection preamble: uvarint(len(self)), self

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
// addresses; it may be extended later with AddPeer. self must be 1 to
// maxName bytes long, the bound a receiver holds a connection's name to.
func ListenTCP(self ids.NodeID, addr string, peers map[ids.NodeID]string) (*TCPEndpoint, error) {
	if len(self) == 0 || len(self) > maxName {
		return nil, fmt.Errorf("transport: node name of %d bytes (want 1 to %d)", len(self), maxName)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		self:     self,
		name:     append(binary.AppendUvarint(nil, uint64(len(self))), self...),
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

// Send writes one message as one frame, reporting the error that SendAll
// counts and drops.
func (e *TCPEndpoint) Send(to ids.NodeID, msg wire.Message) error {
	if msg == nil {
		return errors.New("transport: nil message")
	}
	return e.sendBurst(to, []Envelope{{To: to, Msg: msg}})
}

// SendAll implements Endpoint: the messages are grouped by destination,
// destinations in sorted order and each peer's messages in the order given,
// and each peer's group is written with one flush.
func (e *TCPEndpoint) SendAll(outs []Envelope) {
	slices.SortStableFunc(outs, func(a, b Envelope) int { return cmp.Compare(a.To, b.To) })
	for i := 0; i < len(outs); {
		j := i + 1
		for j < len(outs) && outs[j].To == outs[i].To {
			j++
		}
		_ = e.sendBurst(outs[i].To, outs[i:j])
		i = j
	}
}

// sendBurst writes the messages of outs to one peer as consecutive frames and
// flushes once. A failed write tears down the cached connection and retries
// the burst once on a fresh dial; a second failure is returned, and the
// burst is lost (the protocol stack tolerates loss, and dial backoff curbs
// retries). A nil or oversized message is skipped.
func (e *TCPEndpoint) sendBurst(to ids.NodeID, outs []Envelope) error {
	met := e.met.Load()
	bp := framePool.Get().(*[]byte)
	buf, msgs := (*bp)[:0], 0
	var err error
	for _, o := range outs {
		if o.Msg == nil {
			continue
		}
		var ferr error
		if buf, ferr = appendFrame(buf, o.Msg); ferr != nil {
			met.SendErrors.Inc()
			err = ferr
			continue
		}
		msgs++
	}
	if msgs > 0 {
		werr := e.writeFrames(to, buf)
		if werr != nil {
			e.dropConn(to)
			werr = e.writeFrames(to, buf)
		}
		if werr != nil {
			met.SendErrors.Inc()
			err = werr
		} else {
			met.MsgsSent.Add(uint64(msgs))
			met.BytesSent.Add(uint64(len(buf)))
		}
	}
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// appendFrame appends msg's frame to buf: uvarint(len), then the encoding.
func appendFrame(buf []byte, msg wire.Message) ([]byte, error) {
	start := len(buf)
	buf = wire.AppendEncode(buf, msg)
	n := len(buf) - start
	if n > maxFrame {
		return buf[:start], fmt.Errorf("transport: %s of %d bytes exceeds the %d-byte frame bound", msg.Kind(), n, maxFrame)
	}
	// The length is known only once the message is encoded: grow buf by the
	// varint's width and move the encoding up behind it.
	var hdr [binary.MaxVarintLen32]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	buf = append(buf, hdr[:h]...)
	copy(buf[start+h:], buf[start:start+n])
	copy(buf[start:], hdr[:h])
	return buf, nil
}

// writeFrames writes pre-built frames to the peer's buffered connection and
// flushes. The flush error (not just the buffered-write error) is returned
// so callers see connection failures synchronously and can redial.
func (e *TCPEndpoint) writeFrames(to ids.NodeID, frames []byte) error {
	pc, err := e.connTo(to)
	if err != nil {
		return err
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if _, err := pc.bw.Write(frames); err != nil {
		return err
	}
	return pc.bw.Flush()
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
	// The name goes ahead of the first burst, in the same flush.
	pc := &peerConn{c: c, bw: bufio.NewWriterSize(c, 64<<10)}
	_, _ = pc.bw.Write(e.name) // the empty buffer takes it whole
	e.met.Load().BytesSent.Add(uint64(len(e.name)))
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
	readStream(conn, func(from ids.NodeID, frame []byte) {
		met := e.met.Load()
		met.FramesReceived.Inc()
		met.BytesReceived.Add(uint64(uvarintLen(len(frame)) + len(frame)))
		msg, err := wire.Decode(frame)
		if err != nil {
			met.DecodeErrors.Inc()
			return // a malformed message loses only itself
		}
		e.mu.Lock()
		h := e.h
		e.mu.Unlock()
		if h == nil {
			met.MsgsDropped.Inc()
			return
		}
		met.MsgsReceived.Inc()
		e.SendAll(h(from, msg))
	})
}

// readStream reads one inbound connection from r: the sender's name, then
// frames, each uvarint(len) followed by that many bytes of one message's
// encoding. It hands every frame to deliver, in order, and returns when r
// fails or the stream breaks the framing (a name that is empty, over maxName
// or cut short; a frame that is empty or over maxFrame), after which the
// caller closes the connection.
func readStream(r io.Reader, deliver func(from ids.NodeID, frame []byte)) {
	br := bufio.NewReaderSize(r, 64<<10)
	n, err := binary.ReadUvarint(br)
	if err != nil || n == 0 || n > maxName {
		return
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		return
	}
	from := ids.NodeID(name)
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n == 0 || n > maxFrame {
			return
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		deliver(from, frame)
	}
}

// uvarintLen is the width of n's uvarint encoding.
func uvarintLen(n int) int { return (bits.Len(uint(n)) + 6) / 7 }

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
