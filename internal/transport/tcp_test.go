package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/obs"
	"dgc/internal/wire"
)

// collector gathers delivered messages with synchronization for tests.
type collector struct {
	mu   sync.Mutex
	msgs []wire.Message
	from []ids.NodeID
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handler(from ids.NodeID, m wire.Message) []Envelope {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.from = append(c.from, from)
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// waitFor blocks until n messages arrived or the deadline passes.
func (c *collector) waitFor(t *testing.T, n int, d time.Duration) []wire.Message {
	t.Helper()
	deadline := time.Now().Add(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.msgs) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d messages", len(c.msgs), n)
		}
		// Poll with a short sleep; Cond has no timed wait.
		c.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		c.mu.Lock()
	}
	return append([]wire.Message(nil), c.msgs...)
}

func newTCPPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint, *collector, *collector) {
	t.Helper()
	a, err := ListenTCP("A", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("B", "127.0.0.1:0", nil)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.AddPeer("B", b.Addr())
	b.AddPeer("A", a.Addr())
	ca, cb := newCollector(), newCollector()
	a.SetHandler(ca.handler)
	b.SetHandler(cb.handler)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, ca, cb
}

func TestTCPRoundTrip(t *testing.T) {
	a, b, ca, cb := newTCPPair(t)
	if err := a.Send("B", ping(42)); err != nil {
		t.Fatal(err)
	}
	msgs := cb.waitFor(t, 1, 2*time.Second)
	if got := pingSeq(msgs[0]); got != 42 {
		t.Fatalf("payload = %d", got)
	}
	cb.mu.Lock()
	from := cb.from[0]
	cb.mu.Unlock()
	if from != "A" {
		t.Fatalf("from = %s", from)
	}
	// And the reverse direction.
	if err := b.Send("A", ping(7)); err != nil {
		t.Fatal(err)
	}
	back := ca.waitFor(t, 1, 2*time.Second)
	if got := pingSeq(back[0]); got != 7 {
		t.Fatalf("payload = %d", got)
	}
}

func TestTCPOrderedDelivery(t *testing.T) {
	a, _, _, cb := newTCPPair(t)
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("B", ping(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs := cb.waitFor(t, n, 5*time.Second)
	for i, m := range msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestTCPComplexMessage(t *testing.T) {
	a, _, _, cb := newTCPPair(t)
	along := ids.RefID{Src: "A", Dst: ids.GlobalRef{Node: "B", Obj: 4}}
	alg := core.NewAlg()
	alg.AddSource(along, 3)
	alg.AddTarget(along, 3)
	cdm := wire.NewCDMFromAlg(core.DetectionID{Origin: "A", Seq: 5}, along, alg, 0, 0)
	if err := a.Send("B", cdm); err != nil {
		t.Fatal(err)
	}
	msgs := cb.waitFor(t, 1, 2*time.Second)
	got := msgs[0].(*wire.CDM)
	back := core.NewAlg()
	got.MergeAlgInto(back)
	if got.Det != cdm.Det || !back.Equal(alg) {
		t.Fatalf("CDM mismatch: %+v carries %v, want %v", got, back, alg)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _, _, _ := newTCPPair(t)
	if err := a.Send("Z", ping(0)); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("B", ping(0)); err == nil {
		t.Fatal("send after close succeeded")
	}
	// Double close is a no-op.
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := ListenTCP("B", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("B", b1.Addr())
	c1 := newCollector()
	b1.SetHandler(c1.handler)
	if err := a.Send("B", ping(1)); err != nil {
		t.Fatal(err)
	}
	c1.waitFor(t, 1, 2*time.Second)
	addr := b1.Addr()
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart B on the same address.
	b2, err := ListenTCP("B", addr, nil)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer b2.Close()
	c2 := newCollector()
	b2.SetHandler(c2.handler)
	// Sends against the dead cached connection may "succeed" locally before
	// the RST arrives (the message is then lost — datagram semantics) or
	// fail and trigger the endpoint's redial. Keep sending until one gets
	// through the fresh connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = a.Send("B", ping(2))
		c2.mu.Lock()
		n := len(c2.msgs)
		c2.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not reconnect to restarted peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	msgs := c2.waitFor(t, 1, 2*time.Second)
	if pingSeq(msgs[0]) != 2 {
		t.Fatal("wrong payload after reconnect")
	}
}

// TestTCPConcurrentSenders: single sends and SendAll bursts from several
// goroutines share one connection; every message arrives.
func TestTCPConcurrentSenders(t *testing.T) {
	a, _, _, cb := newTCPPair(t)
	var wg sync.WaitGroup
	const per, workers, burst = 50, 4, 10
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 1 {
				for i := 0; i < per; i += burst {
					outs := make([]Envelope, burst)
					for j := range outs {
						outs[j] = Envelope{To: "B", Msg: ping(uint64(i + j))}
					}
					a.SendAll(outs)
				}
				return
			}
			for i := 0; i < per; i++ {
				if err := a.Send("B", ping(uint64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cb.waitFor(t, per*workers, 5*time.Second)
}

// TestTCPSendAllBatchDelivery: a burst to one peer arrives in the order
// given, one frame per message.
func TestTCPSendAllBatchDelivery(t *testing.T) {
	a, b, _, cb := newTCPPair(t)
	b.SetMetrics(obs.NewTransportMetrics(obs.NewRegistry()))
	const n = 20
	outs := make([]Envelope, n)
	for i := range outs {
		outs[i] = Envelope{To: "B", Msg: ping(uint64(i))}
	}
	a.SendAll(outs)
	msgs := cb.waitFor(t, n, 5*time.Second)
	for i, m := range msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, m)
		}
	}
	if f := b.met.Load().FramesReceived.Value(); f != n {
		t.Fatalf("%d frames for %d messages, want one each", f, n)
	}
}

// readName reads the sender name that opens a connection.
func readName(t *testing.T, br *bufio.Reader) ids.NodeID {
	t.Helper()
	n, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		t.Fatal(err)
	}
	return ids.NodeID(name)
}

// readFrame reads one frame and decodes its message.
func readFrame(t *testing.T, br *bufio.Reader) wire.Message {
	t.Helper()
	n, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// frameOf is msg's frame: uvarint(len), then the encoding.
func frameOf(msg wire.Message) []byte {
	enc := wire.Encode(msg)
	return append(binary.AppendUvarint(nil, uint64(len(enc))), enc...)
}

// TestTCPSendAllMixedPeers: a burst to two peers reaches each peer's
// connection as its name and then its messages, peers in sorted order, each
// peer's messages in the order given. Both peers are one raw listener, so
// its accept queue shows the order in which A dialled them: A dials C only
// once B's frames are written.
func TestTCPSendAllMixedPeers(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a.AddPeer("B", ln.Addr().String())
	a.AddPeer("C", ln.Addr().String())

	var outs []Envelope
	for i := uint64(0); i < 5; i++ {
		outs = append(outs, Envelope{To: "C", Msg: ping(100 + i)}, Envelope{To: "B", Msg: ping(i)})
	}
	a.SendAll(outs)
	for _, base := range []uint64{0, 100} { // B's connection, then C's
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		if from := readName(t, br); from != "A" {
			t.Fatalf("connection %d opens with name %q, want A", base, from)
		}
		for i := uint64(0); i < 5; i++ {
			if m := readFrame(t, br); pingSeq(m) != base+i {
				t.Fatalf("connection %d out of order at %d: %v", base, i, m)
			}
		}
	}
}

// TestTCPStreamSkipsUndecodableFrame: a frame that does not decode loses
// only itself; the frames around it arrive in order, from the name the
// connection opened with.
func TestTCPStreamSkipsUndecodableFrame(t *testing.T) {
	_, b, _, cb := newTCPPair(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stream := append(binary.AppendUvarint(nil, 1), 'X')
	stream = append(stream, frameOf(ping(1))...)
	stream = append(stream, 2, 0xEE, 0) // unknown kind
	stream = append(stream, frameOf(ping(2))...)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	msgs := cb.waitFor(t, 2, 5*time.Second)
	if len(msgs) != 2 || pingSeq(msgs[0]) != 1 || pingSeq(msgs[1]) != 2 {
		t.Fatalf("delivered %v, want pings 1 and 2", msgs)
	}
	cb.mu.Lock()
	from := cb.from
	cb.mu.Unlock()
	if from[0] != "X" || from[1] != "X" {
		t.Fatalf("senders %v, want X twice", from)
	}
	if d := b.met.Load().DecodeErrors.Value(); d != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", d)
	}
}

// TestTCPStreamViolationsClose: a stream that breaks the framing — a name
// that is empty or over maxName, a frame that is empty or over maxFrame — is
// closed by the receiver, which delivers nothing from it.
func TestTCPStreamViolationsClose(t *testing.T) {
	_, b, _, cb := newTCPPair(t)
	name := append(binary.AppendUvarint(nil, 1), 'X')
	for what, stream := range map[string][]byte{
		"empty name":     {0},
		"long name":      append(binary.AppendUvarint(nil, maxName+1), make([]byte, maxName+1)...),
		"empty frame":    append(name, 0),
		"oversize frame": binary.AppendUvarint(append([]byte(nil), name...), maxFrame+1),
	} {
		conn, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		// A close with bytes still unread reads as a reset, not EOF.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: read = %d, %v; want the receiver to close the connection", what, n, err)
		}
		conn.Close()
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.msgs) != 0 {
		t.Fatalf("delivered %v from broken streams", cb.msgs)
	}
}

// FuzzTCPStream hardens the connection reader, the first parser a peer's
// bytes reach: it must never panic, never deliver an empty frame or one
// over maxFrame, and every frame that decodes must re-encode to exactly its
// bytes.
func FuzzTCPStream(f *testing.F) {
	name := append(binary.AppendUvarint(nil, 2), "P1"...)
	good := append(append([]byte(nil), name...), frameOf(ping(1))...)
	good = append(good, frameOf(&wire.NewSetStubs{Seq: 3, Objs: []ids.ObjID{1, 4}})...)
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), 2, 0xEE, 0))
	f.Add(append(append([]byte(nil), name...), 0))
	f.Add(binary.AppendUvarint(append([]byte(nil), name...), maxFrame+1))
	f.Add([]byte{0})
	f.Add(good[:len(good)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		readStream(bytes.NewReader(data), func(from ids.NodeID, frame []byte) {
			if len(from) == 0 || len(from) > maxName {
				t.Fatalf("delivered a frame from a %d-byte name", len(from))
			}
			if len(frame) == 0 || len(frame) > maxFrame {
				t.Fatalf("delivered a %d-byte frame", len(frame))
			}
			msg, err := wire.Decode(frame)
			if err != nil {
				return
			}
			if re := wire.Encode(msg); !bytes.Equal(re, frame) {
				t.Fatalf("frame %x decodes to %v, which encodes to %x", frame, msg, re)
			}
		})
	})
}

func TestTCPDialBackoffFailsFast(t *testing.T) {
	a, err := ListenTCP("A", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Reserve an address with nothing listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	a.AddPeer("B", dead)

	if err := a.Send("B", ping(0)); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	// Within the quarantine window, sends must fail fast without dialing.
	start := time.Now()
	if err := a.Send("B", ping(0)); err == nil {
		t.Fatal("send during backoff succeeded")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("backoff send took %v; expected fail-fast", d)
	}
	// AddPeer clears the backoff so a fresh address is tried immediately.
	b, err := ListenTCP("B", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cb := newCollector()
	b.SetHandler(cb.handler)
	a.AddPeer("B", b.Addr())
	if err := a.Send("B", ping(9)); err != nil {
		t.Fatal(err)
	}
	cb.waitFor(t, 1, 2*time.Second)
}

func TestTCPCloseJoinsReadLoops(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		a, b, _, cb := func(t *testing.T) (*TCPEndpoint, *TCPEndpoint, *collector, *collector) {
			a, err := ListenTCP("A", "127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ListenTCP("B", "127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			a.AddPeer("B", b.Addr())
			b.AddPeer("A", a.Addr())
			ca, cb := newCollector(), newCollector()
			a.SetHandler(ca.handler)
			b.SetHandler(cb.handler)
			return a, b, ca, cb
		}(t)
		if err := a.Send("B", ping(1)); err != nil {
			t.Fatal(err)
		}
		cb.waitFor(t, 1, 2*time.Second)
		// Close must join the accept loop and every readLoop.
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Allow the runtime to settle, then verify no goroutine pile-up.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestTCPCDMIdentityCrossesSocket pins what a CDM's receiver needs to name
// the detection across a real socket hop: the detection id and the hop count
// arrive as the sender wrote them. The message carries no trace id; every
// node derives it from the detection id (core.TraceIDFor).
func TestTCPCDMIdentityCrossesSocket(t *testing.T) {
	a, _, _, cb := newTCPPair(t)
	det := core.DetectionID{Origin: "P7", Seq: 3}
	alg := core.NewAlg()
	alg.AddSource(ids.RefID{Src: "B", Dst: ids.GlobalRef{Node: "A", Obj: 1}}, 1)
	msg := wire.NewCDMFromAlg(det, ids.RefID{Src: "A", Dst: ids.GlobalRef{Node: "B", Obj: 4}}, alg, 2, 0)
	if err := a.Send("B", msg); err != nil {
		t.Fatal(err)
	}
	got := cb.waitFor(t, 1, 2*time.Second)
	cdm, ok := got[0].(*wire.CDM)
	if !ok {
		t.Fatalf("received %T, want *wire.CDM", got[0])
	}
	if cdm.Det != det || cdm.Hops != 2 {
		t.Fatalf("CDM identity changed: %+v", cdm)
	}
}

// TestTCPMetrics exercises the transport instrument block over real sockets:
// sends, receives, frames and byte counts all move, and SetMetrics rebinding
// is observed by subsequent traffic. BytesSent is exact: a fresh connection
// carries the sender's name once, then each message costs its frame.
func TestTCPMetrics(t *testing.T) {
	a, b, _, cb := newTCPPair(t)
	reg := obs.NewRegistry()
	a.SetMetrics(obs.NewTransportMetrics(reg))
	breg := obs.NewRegistry()
	b.SetMetrics(obs.NewTransportMetrics(breg))
	am, bm := a.met.Load(), b.met.Load()
	const name = 2                         // uvarint(1), then "A"
	frame := uint64(len(frameOf(ping(0)))) // uvarint(len), then the encoding
	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send("B", ping(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if got, want := am.BytesSent.Value(), name+uint64(i+1)*frame; got != want {
			t.Fatalf("after %d sends BytesSent = %d, want %d", i+1, got, want)
		}
	}
	cb.waitFor(t, n, 2*time.Second)
	if am.MsgsSent.Value() != n {
		t.Fatalf("MsgsSent = %d, want %d", am.MsgsSent.Value(), n)
	}
	if am.Dials.Value() == 0 {
		t.Fatal("Dials did not move")
	}
	if bm.MsgsReceived.Value() != n {
		t.Fatalf("MsgsReceived = %d, want %d", bm.MsgsReceived.Value(), n)
	}
	if bm.FramesReceived.Value() == 0 || bm.BytesReceived.Value() == 0 {
		t.Fatal("receive-side frame/byte counters did not move")
	}
}
