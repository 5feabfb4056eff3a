package node

import (
	"sync"
	"testing"
	"time"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// sendLog records, in order, the kind of every message a node hands its
// TCP endpoint (the embedded endpoint still sends it, batching bursts).
type sendLog struct {
	*transport.TCPEndpoint
	mu    sync.Mutex
	kinds []wire.Kind
}

func (l *sendLog) SendAll(outs []transport.Envelope) {
	l.mu.Lock()
	for _, o := range outs {
		l.kinds = append(l.kinds, o.Msg.Kind())
	}
	l.mu.Unlock()
	l.TCPEndpoint.SendAll(outs)
}

func (l *sendLog) sent() []wire.Kind {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.Kind(nil), l.kinds...)
}

// windowRig is a started node B over loopback TCP between two bare
// endpoints: A, which sends B detection messages, and C, which records the
// detection messages B forwards. B holds k unrooted objects, each reached
// from A by a scion and holding a stub to C, so a CDM along A→B:o_i forwards
// along B→C:i.
type windowRig struct {
	b    *Node
	bLog *sendLog
	a    *transport.TCPEndpoint
	cdms []wire.Message
	atC  chan wire.Message
}

func newWindowRig(t *testing.T, k int) *windowRig {
	t.Helper()
	listen := func(id ids.NodeID) *transport.TCPEndpoint {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	// C gets at most one message per forwarded section: k slots never block
	// its read loop.
	rig := &windowRig{a: listen("A"), atC: make(chan wire.Message, k)}
	epB, epC := listen("B"), listen("C")
	rig.a.AddPeer("B", epB.Addr())
	epB.AddPeer("A", rig.a.Addr())
	epB.AddPeer("C", epC.Addr())
	epC.SetHandler(func(_ ids.NodeID, msg wire.Message) []transport.Envelope {
		switch msg.(type) {
		case *wire.CDM, *wire.BatchCDM:
			rig.atC <- msg
		}
		return nil
	})

	// An hour-long tick never comes due: no tick closes a window here.
	rig.bLog = &sendLog{TCPEndpoint: epB}
	rig.b = NewLiveRuntime("B", rig.bLog, Config{}, RuntimeConfig{Tick: time.Hour})
	t.Cleanup(func() { rig.b.Close() })
	objs := make([]ids.ObjID, k)
	if err := rig.b.With(func(m Mutator) {
		for i := range objs {
			objs[i] = m.Alloc(nil)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		if err := rig.b.EnsureScionFor("A", o); err != nil {
			t.Fatal(err)
		}
		if err := rig.b.HoldRemote(o, ids.GlobalRef{Node: "C", Obj: ids.ObjID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.b.Summarize(); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		along := ids.RefID{Src: "A", Dst: ids.GlobalRef{Node: "B", Obj: o}}
		alg := core.NewAlg()
		alg.AddSource(ids.RefID{Src: "C", Dst: ids.GlobalRef{Node: "A", Obj: ids.ObjID(i)}}, 0)
		alg.AddTarget(along, 0)
		det := core.DetectionID{Origin: "A", Seq: uint64(i + 1)}
		rig.cdms = append(rig.cdms, wire.NewCDMFromAlg(det, along, alg, 1, core.TraceIDFor(det)))
	}
	return rig
}

// hold wedges B's loop inside a local call until release is called.
func (rig *windowRig) hold(t *testing.T) (release func()) {
	t.Helper()
	wedge, entered := make(chan struct{}), make(chan struct{})
	go func() {
		_ = rig.b.With(func(Mutator) {
			close(entered)
			<-wedge
		})
	}()
	<-entered
	return func() { close(wedge) }
}

// queueCDMs sends every CDM from A and waits until B's mailbox holds them
// and extra more inputs.
func (rig *windowRig) queueCDMs(t *testing.T, extra func()) {
	t.Helper()
	outs := make([]transport.Envelope, len(rig.cdms))
	for i, msg := range rig.cdms {
		outs[i] = transport.Envelope{To: "B", Msg: msg}
	}
	rig.a.SendAll(outs)
	waitUntil(t, 5*time.Second, "the CDMs to queue", func() bool { return len(rig.b.mailbox) == len(rig.cdms) })
	if extra != nil {
		extra()
	}
}

func sections(msg wire.Message) int {
	if b, ok := msg.(*wire.BatchCDM); ok {
		return len(b.Sections)
	}
	return 1
}

// A started node drains the deliveries queued behind the one it takes and
// flushes once: K CDMs that queued while its loop was busy, every one
// forwarding to the same peer, leave as one detection message, not K.
func TestLiveWindowOneDetectionMessagePerPeer(t *testing.T) {
	const k = 8
	rig := newWindowRig(t, k)
	release := rig.hold(t)
	rig.queueCDMs(t, nil)
	release()

	msgs, secs := 0, 0
	for secs < k {
		select {
		case msg := <-rig.atC:
			msgs++
			secs += sections(msg)
		case <-time.After(5 * time.Second):
			t.Fatalf("C got %d of %d forwarded sections", secs, k)
		}
	}
	if msgs != 1 {
		t.Fatalf("C got the %d sections in %d detection messages, want 1", k, msgs)
	}
}

// A local call queued behind deliveries closes their window: the deliveries'
// traffic leaves first, then the call runs, and its own effects are on the
// wire before it returns.
func TestLiveWindowLocalCallFlushes(t *testing.T) {
	const k = 4
	rig := newWindowRig(t, k)
	release := rig.hold(t)
	done := make(chan struct{})
	rig.queueCDMs(t, func() {
		go func() {
			rig.b.RunLGC()
			close(done)
		}()
		waitUntil(t, 5*time.Second, "the call to queue", func() bool { return len(rig.b.mailbox) == k+1 })
	})
	before := len(rig.bLog.sent())
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the queued call did not return")
	}

	sent := rig.bLog.sent()[before:]
	first := -1
	for i, kind := range sent {
		if kind == wire.KindNewSetStubs {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatalf("RunLGC returned before its stub sets were sent: %v", sent)
	}
	detection := 0
	for i, kind := range sent {
		if kind != wire.KindCDM && kind != wire.KindBatchCDM {
			continue
		}
		if i > first {
			t.Fatalf("detection traffic queued before the call left after it: %v", sent)
		}
		detection++
	}
	if detection == 0 {
		t.Fatalf("the queued deliveries' traffic was not sent before the call returned: %v", sent)
	}
}
