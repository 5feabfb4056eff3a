package admin

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// memEndpoint is a minimal in-memory endpoint recording sends.
type memEndpoint struct {
	mu    sync.Mutex
	self  ids.NodeID
	sent  []ids.NodeID
	calls int // SendAll calls
	h     transport.Handler
}

func (m *memEndpoint) Self() ids.NodeID { return m.self }
func (m *memEndpoint) SendAll(outs []transport.Envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	for _, o := range outs {
		m.sent = append(m.sent, o.To)
	}
}
func (m *memEndpoint) SetHandler(h transport.Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.h = h
}
func (m *memEndpoint) Close() error { return nil }

func (m *memEndpoint) sentCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sent)
}

// inject pushes an inbound message through whatever handler the fault layer
// installed on this endpoint.
func (m *memEndpoint) inject(from ids.NodeID, msg wire.Message) []transport.Envelope {
	m.mu.Lock()
	h := m.h
	m.mu.Unlock()
	if h == nil {
		return nil
	}
	return h(from, msg)
}

var testMsg wire.Message = &wire.CreateScionAck{Acks: []wire.ExportAck{{ExportID: 1}}}

// send1 sends testMsg to each peer, one SendAll per message.
func send1(fe *FaultEndpoint, peers ...ids.NodeID) {
	for _, p := range peers {
		fe.SendAll([]transport.Envelope{{To: p, Msg: testMsg}})
	}
}

func TestFaultEndpointDrop(t *testing.T) {
	inner := &memEndpoint{self: "P1"}
	fe := NewFaultEndpoint(inner)
	fe.SetDrop(1.0, 0)
	for i := 0; i < 10; i++ {
		send1(fe, "P2")
	}
	if inner.sentCount() != 0 {
		t.Errorf("sent %d messages through a rate-1.0 drop", inner.sentCount())
	}
	st := fe.FaultStatus()
	if st.Dropped != 10 || st.DropRate != 1.0 || !st.Active() {
		t.Errorf("status = %+v", st)
	}
	fe.Heal()
	send1(fe, "P2")
	if inner.sentCount() != 1 {
		t.Errorf("healed endpoint still dropping")
	}
	if fe.FaultStatus().Active() {
		t.Errorf("healed status still active: %+v", fe.FaultStatus())
	}
}

func TestFaultEndpointPartitionBothWays(t *testing.T) {
	inner := &memEndpoint{self: "P1"}
	fe := NewFaultEndpoint(inner)
	var delivered int
	fe.SetHandler(func(from ids.NodeID, msg wire.Message) []transport.Envelope {
		delivered++
		return nil
	})
	fe.SetPartition([]ids.NodeID{"P2"}, false, 0)

	// Outbound to the partitioned peer is cut; other peers pass.
	send1(fe, "P2", "P3")
	if inner.sentCount() != 1 {
		t.Errorf("outbound: sent %d, want 1 (P3 only)", inner.sentCount())
	}

	// Inbound from the partitioned peer is cut at the shim.
	inner.inject("P2", testMsg)
	inner.inject("P3", testMsg)
	if delivered != 1 {
		t.Errorf("inbound: delivered %d, want 1 (P3 only)", delivered)
	}

	// Isolation (empty peer list) cuts everyone.
	fe.SetPartition(nil, true, 0)
	send1(fe, "P3")
	inner.inject("P3", testMsg)
	if inner.sentCount() != 1 || delivered != 1 {
		t.Errorf("isolate leaked: sent=%d delivered=%d", inner.sentCount(), delivered)
	}
}

func TestFaultEndpointTTLAndGeneration(t *testing.T) {
	inner := &memEndpoint{self: "P1"}
	fe := NewFaultEndpoint(inner)
	fe.SetDrop(1.0, 10*time.Millisecond)
	// Reconfigure before the TTL fires: the stale expiry must not clobber
	// the newer injection.
	fe.SetDrop(0.5, 0)
	time.Sleep(30 * time.Millisecond)
	if st := fe.FaultStatus(); st.DropRate != 0.5 {
		t.Errorf("stale TTL reverted a newer injection: %+v", st)
	}

	fe.SetDrop(1.0, 10*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for fe.FaultStatus().DropRate != 0 {
		if time.Now().After(deadline) {
			t.Fatal("TTL never reverted the drop rate")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFaultEndpointSetInnerKeepsConfigAndHandler(t *testing.T) {
	inner1 := &memEndpoint{self: "P1"}
	fe := NewFaultEndpoint(inner1)
	var delivered int
	fe.SetHandler(func(from ids.NodeID, msg wire.Message) []transport.Envelope {
		delivered++
		return nil
	})
	fe.SetDrop(1.0, 0)

	// Swap the socket, as a supervisor restart does.
	inner2 := &memEndpoint{self: "P1"}
	fe.setInner(inner2)

	send1(fe, "P2")
	if inner2.sentCount() != 0 {
		t.Error("drop config lost across setInner")
	}
	inner2.inject("P2", testMsg)
	if delivered != 1 {
		t.Error("handler not re-installed on the new inner endpoint")
	}
}

func TestFaultEndpointDelay(t *testing.T) {
	inner := &memEndpoint{self: "P1"}
	fe := NewFaultEndpoint(inner)
	fe.SetDelay(20*time.Millisecond, 0)
	fe.SendAll([]transport.Envelope{{To: "P2", Msg: testMsg}, {To: "P3", Msg: testMsg}})
	if inner.sentCount() != 0 {
		t.Error("delayed message sent immediately")
	}
	deadline := time.Now().Add(2 * time.Second)
	for inner.sentCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed message never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	inner.mu.Lock()
	sent, calls := inner.sent, inner.calls
	inner.mu.Unlock()
	if len(sent) != 2 || calls != 1 {
		t.Errorf("delayed burst reached the inner endpoint as %v in %d calls, want both in one", sent, calls)
	}
	if st := fe.FaultStatus(); st.Delayed != 2 || st.DelayMS != 20 {
		t.Errorf("status = %+v", st)
	}
}

// TestFaultEndpointSendAllFiltersInOrder: the survivors of one SendAll
// reach the inner endpoint in one SendAll, in the order given.
func TestFaultEndpointSendAllFiltersInOrder(t *testing.T) {
	inner := &memEndpoint{self: "P1"}
	fe := NewFaultEndpoint(inner)
	fe.SetPartition([]ids.NodeID{"P2"}, false, 0)
	fe.SendAll([]transport.Envelope{
		{To: "P2", Msg: testMsg}, {To: "P4", Msg: testMsg}, {To: "P2", Msg: testMsg}, {To: "P3", Msg: testMsg},
	})
	if got := fmt.Sprint(inner.sent); got != "[P4 P3]" || inner.calls != 1 {
		t.Errorf("inner got %s in %d calls, want [P4 P3] in 1", got, inner.calls)
	}
	if st := fe.FaultStatus(); st.Dropped != 2 {
		t.Errorf("dropped %d, want 2", st.Dropped)
	}
}
