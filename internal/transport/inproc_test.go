package transport

import (
	"sync"
	"testing"

	"dgc/internal/ids"
	"dgc/internal/wire"
)

// ping is the transport tests' payload: a kind with a production sender,
// carrying a sequence number that pingSeq reads back.
func ping(seq uint64) wire.Message {
	return &wire.CreateScionAck{Acks: []wire.ExportAck{{ExportID: seq}}}
}

func pingSeq(m wire.Message) uint64 { return m.(*wire.CreateScionAck).Acks[0].ExportID }

func TestInprocDelivery(t *testing.T) {
	net := NewNetwork(1)
	a := net.Endpoint("A")
	b := net.Endpoint("B")
	var got []uint64
	var from []ids.NodeID
	b.SetHandler(func(f ids.NodeID, m wire.Message) []Envelope {
		from = append(from, f)
		got = append(got, pingSeq(m))
		return nil
	})
	for i := uint64(1); i <= 3; i++ {
		a.SendAll([]Envelope{{To: "B", Msg: ping(i)}})
	}
	if net.Pending() != 3 {
		t.Fatalf("Pending = %d", net.Pending())
	}
	n := net.Drain(0)
	if n != 3 || len(got) != 3 {
		t.Fatalf("delivered %d, handler saw %d", n, len(got))
	}
	// FIFO without faults.
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("out of order: %v", got)
		}
	}
	if from[0] != "A" {
		t.Fatalf("from = %v", from)
	}
}

func TestInprocEndpointIdentity(t *testing.T) {
	net := NewNetwork(1)
	a1 := net.Endpoint("A")
	a2 := net.Endpoint("A")
	if a1 != a2 {
		t.Fatal("Endpoint not idempotent per node")
	}
	if a1.Self() != "A" {
		t.Fatalf("Self = %s", a1.Self())
	}
}

func TestInprocHandlerMaySend(t *testing.T) {
	// A handler returning send effects extends the drain (transitive
	// quiescence): A -> B -> C.
	net := NewNetwork(1)
	a, b, c := net.Endpoint("A"), net.Endpoint("B"), net.Endpoint("C")
	_, _ = a, b
	var final uint64
	b.SetHandler(func(_ ids.NodeID, m wire.Message) []Envelope {
		return []Envelope{{To: "C", Msg: ping(pingSeq(m) + 1)}}
	})
	c.SetHandler(func(_ ids.NodeID, m wire.Message) []Envelope {
		final = pingSeq(m)
		return nil
	})
	net.Endpoint("A").SendAll([]Envelope{{To: "B", Msg: ping(10)}})
	net.Drain(0)
	if final != 11 {
		t.Fatalf("final = %d", final)
	}
}

func TestInprocDropWithoutHandler(t *testing.T) {
	net := NewNetwork(1)
	a := net.Endpoint("A")
	net.Endpoint("B") // no handler installed
	a.SendAll([]Envelope{{To: "B", Msg: ping(1)}})
	a.SendAll([]Envelope{{To: "Z", Msg: ping(2)}}) // no such endpoint at all
	net.Drain(0)
	_, delivered, dropped := net.Counts()
	if delivered[wire.KindCreateScionAck] != 0 {
		t.Fatal("message delivered to handler-less endpoint")
	}
	if dropped[wire.KindCreateScionAck] != 2 {
		t.Fatalf("dropped = %d, want 2", dropped[wire.KindCreateScionAck])
	}
}

func TestInprocLoss(t *testing.T) {
	net := NewNetwork(7)
	net.SetFaults(Faults{LossRate: 1.0})
	a, b := net.Endpoint("A"), net.Endpoint("B")
	count := 0
	b.SetHandler(func(ids.NodeID, wire.Message) []Envelope { count++; return nil })
	for i := 0; i < 10; i++ {
		a.SendAll([]Envelope{{To: "B", Msg: ping(uint64(i))}})
	}
	net.Drain(0)
	if count != 0 {
		t.Fatalf("delivered %d with LossRate 1.0", count)
	}
	sent, _, dropped := net.Counts()
	if sent[wire.KindCreateScionAck] != 10 || dropped[wire.KindCreateScionAck] != 10 {
		t.Fatalf("sent=%v dropped=%v", sent, dropped)
	}
}

func TestInprocDuplication(t *testing.T) {
	net := NewNetwork(7)
	net.SetFaults(Faults{DupRate: 1.0})
	a, b := net.Endpoint("A"), net.Endpoint("B")
	count := 0
	b.SetHandler(func(ids.NodeID, wire.Message) []Envelope { count++; return nil })
	for i := 0; i < 5; i++ {
		a.SendAll([]Envelope{{To: "B", Msg: ping(uint64(i))}})
	}
	net.Drain(0)
	if count != 10 {
		t.Fatalf("delivered %d with DupRate 1.0, want 10", count)
	}
}

func TestInprocReorderIsPermutation(t *testing.T) {
	net := NewNetwork(99)
	net.SetFaults(Faults{ReorderRate: 1.0})
	a, b := net.Endpoint("A"), net.Endpoint("B")
	var got []uint64
	b.SetHandler(func(_ ids.NodeID, m wire.Message) []Envelope {
		got = append(got, pingSeq(m))
		return nil
	})
	const n = 50
	for i := 0; i < n; i++ {
		a.SendAll([]Envelope{{To: "B", Msg: ping(uint64(i))}})
	}
	net.Drain(0)
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	seen := make(map[uint64]bool)
	inOrder := true
	for i, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
		if v != uint64(i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("reorder fault produced strictly FIFO delivery for 50 messages")
	}
}

func TestInprocFaultsAffectsFilter(t *testing.T) {
	net := NewNetwork(7)
	net.SetFaults(Faults{LossRate: 1.0, Affects: []wire.Kind{wire.KindCDM}})
	a, b := net.Endpoint("A"), net.Endpoint("B")
	count := 0
	b.SetHandler(func(ids.NodeID, wire.Message) []Envelope { count++; return nil })
	// Non-CDM traffic is unaffected by the fault plan.
	a.SendAll([]Envelope{{To: "B", Msg: ping(1)}})
	// CDM traffic is lost.
	a.SendAll([]Envelope{{To: "B", Msg: &wire.CDM{}}})
	net.Drain(0)
	if count != 1 {
		t.Fatalf("delivered %d, want only the non-CDM message", count)
	}
}

func TestInprocDeterministicWithSeed(t *testing.T) {
	run := func() []uint64 {
		net := NewNetwork(1234)
		net.SetFaults(Faults{LossRate: 0.3, DupRate: 0.2, ReorderRate: 0.5})
		a, b := net.Endpoint("A"), net.Endpoint("B")
		var got []uint64
		b.SetHandler(func(_ ids.NodeID, m wire.Message) []Envelope {
			got = append(got, pingSeq(m))
			return nil
		})
		for i := 0; i < 30; i++ {
			a.SendAll([]Envelope{{To: "B", Msg: ping(uint64(i))}})
		}
		net.Drain(0)
		return got
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("non-deterministic order at %d", i)
		}
	}
}

func TestInprocDrainLimit(t *testing.T) {
	net := NewNetwork(1)
	a, b := net.Endpoint("A"), net.Endpoint("B")
	b.SetHandler(func(ids.NodeID, wire.Message) []Envelope { return nil })
	for i := 0; i < 10; i++ {
		a.SendAll([]Envelope{{To: "B", Msg: ping(uint64(i))}})
	}
	if n := net.Drain(4); n != 4 {
		t.Fatalf("Drain(4) = %d", n)
	}
	if net.Pending() != 6 {
		t.Fatalf("Pending = %d", net.Pending())
	}
}

func TestInprocBytesSentAccounting(t *testing.T) {
	net := NewNetwork(1)
	a := net.Endpoint("A")
	net.Endpoint("B").SetHandler(func(ids.NodeID, wire.Message) []Envelope { return nil })
	msg := ping(300)
	a.SendAll([]Envelope{{To: "B", Msg: msg}})
	if got, want := net.BytesSent(), uint64(len(wire.Encode(msg))); got != want {
		t.Fatalf("BytesSent = %d, want %d", got, want)
	}
}

func TestInprocNilMessageRejected(t *testing.T) {
	net := NewNetwork(1)
	net.Endpoint("A").SendAll([]Envelope{{To: "B"}})
	if sent, _, _ := net.Counts(); net.Pending() != 0 || len(sent) != 0 {
		t.Fatalf("nil message queued: %d pending, sent %v", net.Pending(), sent)
	}
}

func TestInprocCloseStopsDelivery(t *testing.T) {
	net := NewNetwork(1)
	a, b := net.Endpoint("A"), net.Endpoint("B")
	count := 0
	b.SetHandler(func(ids.NodeID, wire.Message) []Envelope { count++; return nil })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	a.SendAll([]Envelope{{To: "B", Msg: ping(1)}})
	net.Drain(0)
	if count != 0 {
		t.Fatal("closed endpoint received a message")
	}
}

func TestInprocConcurrentSends(t *testing.T) {
	// SendAll is safe from many goroutines (the TCP-backed node does this).
	net := NewNetwork(1)
	a, b := net.Endpoint("A"), net.Endpoint("B")
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(ids.NodeID, wire.Message) []Envelope {
		mu.Lock()
		count++
		mu.Unlock()
		return nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.SendAll([]Envelope{{To: "B", Msg: ping(uint64(i))}})
			}
		}()
	}
	wg.Wait()
	net.Drain(0)
	if count != 800 {
		t.Fatalf("delivered %d, want 800", count)
	}
}
