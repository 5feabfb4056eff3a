package transport

import (
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

func TestTCPConcurrentSenders(t *testing.T) {
	a, _, _, cb := newTCPPair(t)
	var wg sync.WaitGroup
	const per, workers = 50, 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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

func TestTCPStagedBatchDelivery(t *testing.T) {
	a, _, _, cb := newTCPPair(t)
	a.BeginStage()
	const n = 20
	for i := 0; i < n; i++ {
		if err := a.Send("B", ping(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing may hit the wire while staged.
	time.Sleep(20 * time.Millisecond)
	cb.mu.Lock()
	early := len(cb.msgs)
	cb.mu.Unlock()
	if early != 0 {
		t.Fatalf("%d messages delivered before FlushStage", early)
	}
	a.FlushStage()
	msgs := cb.waitFor(t, n, 5*time.Second)
	for i, m := range msgs {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, m)
		}
	}
}

func TestTCPStagedNesting(t *testing.T) {
	a, _, _, cb := newTCPPair(t)
	a.BeginStage()
	a.BeginStage()
	if err := a.Send("B", ping(1)); err != nil {
		t.Fatal(err)
	}
	a.FlushStage() // inner: must NOT ship yet
	time.Sleep(20 * time.Millisecond)
	cb.mu.Lock()
	early := len(cb.msgs)
	cb.mu.Unlock()
	if early != 0 {
		t.Fatal("inner FlushStage shipped messages")
	}
	a.FlushStage() // outer: ships
	cb.waitFor(t, 1, 2*time.Second)

	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced FlushStage did not panic")
		}
	}()
	a.FlushStage()
}

func TestTCPStagedMixedPeers(t *testing.T) {
	// Three endpoints; A stages traffic to both B and C and flushes in order.
	a, b, _, cb := newTCPPair(t)
	_ = b
	c, err := ListenTCP("C", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a.AddPeer("C", c.Addr())
	cc := newCollector()
	c.SetHandler(cc.handler)

	a.BeginStage()
	for i := 0; i < 5; i++ {
		if err := a.Send("B", ping(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("C", ping(uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	a.FlushStage() // ships to both peers, sorted destination order
	got := cb.waitFor(t, 5, 5*time.Second)
	for i, m := range got {
		if pingSeq(m) != uint64(i) {
			t.Fatalf("B out of order at %d", i)
		}
	}
	gotC := cc.waitFor(t, 5, 5*time.Second)
	for i, m := range gotC {
		if pingSeq(m) != uint64(100+i) {
			t.Fatalf("C out of order at %d", i)
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

// TestTCPCDMTracePropagation pins the observability contract that a
// detection's causal trace id rides the CDM unchanged across a real socket
// hop: what the sender stamped is exactly what the receiving handler decodes.
func TestTCPCDMTracePropagation(t *testing.T) {
	a, _, _, cb := newTCPPair(t)
	det := core.DetectionID{Origin: "P7", Seq: 3}
	tr := core.TraceIDFor(det)
	if tr == 0 {
		t.Fatal("TraceIDFor returned zero")
	}
	alg := core.NewAlg()
	alg.AddSource(ids.RefID{Src: "B", Dst: ids.GlobalRef{Node: "A", Obj: 1}}, 1)
	msg := wire.NewCDMFromAlg(det, ids.RefID{Src: "A", Dst: ids.GlobalRef{Node: "B", Obj: 4}}, alg, 2, tr)
	if err := a.Send("B", msg); err != nil {
		t.Fatal(err)
	}
	got := cb.waitFor(t, 1, 2*time.Second)
	cdm, ok := got[0].(*wire.CDM)
	if !ok {
		t.Fatalf("received %T, want *wire.CDM", got[0])
	}
	if cdm.Trace != tr {
		t.Fatalf("trace id mangled across the hop: got %#x, want %#x", cdm.Trace, tr)
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
