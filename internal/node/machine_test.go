package node

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// The Machine is driven here with no transport and no driver at all: every
// input mutates state and accumulates outbound messages as effects, which
// the test inspects directly.

func TestMachineAccumulatesSendEffects(t *testing.T) {
	m := NewMachine("A", Config{})
	var obj ids.ObjID
	m.With(func(mut Mutator) {
		obj = mut.Alloc(nil)
		if err := mut.Root(obj); err != nil {
			t.Fatal(err)
		}
	})
	if err := m.HoldRemote(obj, ids.GlobalRef{Node: "B", Obj: 1}); err != nil {
		t.Fatal(err)
	}
	if outs := m.TakeEffects(); len(outs) != 0 {
		t.Fatalf("pure mutation produced %d sends", len(outs))
	}

	// A local collection must emit the reference-listing stub set to B.
	m.RunLGC()
	outs := m.TakeEffects()
	if len(outs) == 0 {
		t.Fatal("RunLGC produced no effects despite a remote reference")
	}
	found := false
	for _, o := range outs {
		if o.To == "B" {
			if _, ok := o.Msg.(*wire.NewSetStubs); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no NewSetStubs to B in effects: %v", outs)
	}
	// TakeEffects transfers ownership: the buffer starts fresh.
	if rest := m.TakeEffects(); len(rest) != 0 {
		t.Fatalf("second TakeEffects returned %d messages", len(rest))
	}
}

func TestMachineHandleMessageEffects(t *testing.T) {
	m := NewMachine("B", Config{})
	var obj ids.ObjID
	m.With(func(mut Mutator) { obj = mut.Alloc(nil) })
	m.TakeEffects()

	m.HandleMessage("A", &wire.CreateScion{ExportID: 7, From: "A", Holder: "A", Obj: obj})
	outs := m.TakeEffects()
	if len(outs) != 1 || outs[0].To != "A" {
		t.Fatalf("effects = %v, want one ack to A", outs)
	}
	ack, ok := outs[0].Msg.(*wire.CreateScionAck)
	if !ok || !ack.OK || ack.ExportID != 7 {
		t.Fatalf("ack = %+v", outs[0].Msg)
	}
	if m.NumScions() != 1 {
		t.Fatalf("scions = %d", m.NumScions())
	}

	// A kind the machine has no handler for — wire.Credit, still decodable
	// though nothing sends it — is ignored: no effect, no state change.
	m.HandleMessage("A", &wire.Credit{Consumed: 3})
	if outs := m.TakeEffects(); len(outs) != 0 || m.NumScions() != 1 {
		t.Fatalf("a Credit produced %d effects and left %d scions", len(outs), m.NumScions())
	}
}

// The re-entrancy guard turns what used to be a silent deadlock — a Method
// handler, ReplyFunc or With body calling back into a public entry point —
// into an immediate panic with a diagnostic. It has one call site (enter)
// serving both schedulers, so every case runs against both constructors.

func mustPanicReentered(t *testing.T, fn func()) {
	t.Helper()
	if msg := reentryPanic(fn); !strings.Contains(msg, "re-entered") {
		t.Fatalf("panic = %q, want re-entry diagnostic", msg)
	}
}

// reentryPanic runs fn and returns the message it panicked with ("" when it
// returned normally). Callbacks use it in place, because on a started node a
// panic escaping a Method or ReplyFunc would unwind the loop goroutine.
func reentryPanic(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func TestReentryGuard(t *testing.T) {
	schedulers := map[string]func(t *testing.T, id ids.NodeID, ep transport.Endpoint) *Node{
		"stepped": func(_ *testing.T, id ids.NodeID, ep transport.Endpoint) *Node {
			return New(id, ep, Config{})
		},
		"started": func(t *testing.T, id ids.NodeID, ep transport.Endpoint) *Node {
			n := NewLiveRuntime(id, ep, Config{}, RuntimeConfig{Tick: time.Hour})
			t.Cleanup(func() { n.Close() })
			return n
		},
	}
	// Each case returns what the offending call panicked with, observed from
	// inside the callback that made it.
	cases := []struct {
		name      string
		reentered bool
		run       func(t *testing.T, tn *testNet, a, b *Node, target ids.GlobalRef) string
	}{
		{"With block", true, func(t *testing.T, tn *testNet, a, b *Node, target ids.GlobalRef) (msg string) {
			a.With(func(Mutator) { msg = reentryPanic(func() { a.NumObjects() }) })
			return msg
		}},
		{"Method handler", true, func(t *testing.T, tn *testNet, a, b *Node, target ids.GlobalRef) (msg string) {
			b.RegisterMethod("bad", func(Mutator, ids.ObjID, []ids.GlobalRef) []ids.GlobalRef {
				msg = reentryPanic(b.Tick) // illegal: public entry point from inside the machine
				return nil
			})
			if err := a.Invoke(target, "bad", nil, nil); err != nil {
				t.Fatal(err)
			}
			tn.settle()
			return msg
		}},
		{"ReplyFunc", true, func(t *testing.T, tn *testNet, a, b *Node, target ids.GlobalRef) (msg string) {
			err := a.Invoke(target, "noop", nil,
				func(Mutator, Reply) { msg = reentryPanic(func() { a.Stats() }) })
			if err != nil {
				t.Fatal(err)
			}
			tn.settle()
			return msg
		}},
		// The sanctioned path — Mutator.Invoke from callback context — must
		// not trip the guard.
		{"Mutator.Invoke", false, func(t *testing.T, tn *testNet, a, b *Node, target ids.GlobalRef) (msg string) {
			got := false
			err := a.Invoke(target, "noop", nil, func(m Mutator, r Reply) {
				if !r.OK {
					t.Errorf("first call failed: %s", r.Err)
				}
				msg = reentryPanic(func() {
					_ = m.Invoke(target, "noop", nil, func(_ Mutator, r2 Reply) { got = r2.OK })
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			tn.settle()
			if !got {
				t.Error("chained Mutator.Invoke did not complete")
			}
			return msg
		}},
	}
	for sched, mk := range schedulers {
		for _, tc := range cases {
			t.Run(sched+"/"+tc.name, func(t *testing.T) {
				tn := newTestNetOf(t, mk, "A", "B")
				a, b := tn.n("A"), tn.n("B")
				caller, callee := allocRooted(t, a), allocRooted(t, b)
				tn.grant("A", caller, "B", callee)
				msg := tc.run(t, tn, a, b, ids.GlobalRef{Node: "B", Obj: callee})
				if got := strings.Contains(msg, "re-entered"); got != tc.reentered {
					t.Fatalf("callback panic = %q, want re-entry diagnostic: %v", msg, tc.reentered)
				}
				// The node survives a tripped guard on either scheduler.
				if a.NumObjects() != 1 || b.NumObjects() != 1 {
					t.Fatalf("objects after guard = %d/%d, want 1/1", a.NumObjects(), b.NumObjects())
				}
			})
		}
	}
}
