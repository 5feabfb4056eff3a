package transport

import (
	"encoding/binary"
	"io"
	"net"
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

// TestTCPSendAllBatchDelivery: a burst to one peer arrives as one frame,
// in the order given.
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
	if f := b.met.Load().FramesReceived.Value(); f != 1 {
		t.Fatalf("%d frames for one burst, want 1", f)
	}
}

// TestTCPSendAllMixedPeers: a burst to two peers ships one frame per peer,
// peers in sorted order, each peer's messages in the order given. Both
// peers are one raw listener, so its accept queue shows the order in which
// A dialled them: A dials C only once B's frame is written.
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
	for _, base := range []uint64{0, 100} { // B's frame, then C's
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr))
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.Fatal(err)
		}
		_, rest, _ := readLenString(payload)
		msg, err := wire.Decode(rest)
		if err != nil {
			t.Fatal(err)
		}
		batch, ok := msg.(*wire.Batch)
		if !ok || len(batch.Msgs) != 5 {
			t.Fatalf("connection %d: got %v, want one batch of 5", base, msg)
		}
		for i, m := range batch.Msgs {
			if pingSeq(m) != base+uint64(i) {
				t.Fatalf("connection %d out of order at %d: %v", base, i, m)
			}
		}
	}
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
// is observed by subsequent traffic.
func TestTCPMetrics(t *testing.T) {
	a, b, _, cb := newTCPPair(t)
	reg := obs.NewRegistry()
	a.SetMetrics(obs.NewTransportMetrics(reg))
	breg := obs.NewRegistry()
	b.SetMetrics(obs.NewTransportMetrics(breg))
	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send("B", ping(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cb.waitFor(t, n, 2*time.Second)
	am, bm := a.met.Load(), b.met.Load()
	if am.MsgsSent.Value() != n {
		t.Fatalf("MsgsSent = %d, want %d", am.MsgsSent.Value(), n)
	}
	if am.BytesSent.Value() == 0 {
		t.Fatal("BytesSent did not move")
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
