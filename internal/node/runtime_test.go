package node

import (
	"errors"
	"slices"
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/trace"
	"dgc/internal/transport"
)

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLiveRuntimeLocalLifecycle(t *testing.T) {
	r := NewLiveRuntime("A", nil, Config{}, RuntimeConfig{Tick: time.Millisecond})
	var obj ids.ObjID
	if err := r.With(func(m Mutator) {
		obj = m.Alloc(nil)
		if err := m.Root(obj); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.NumObjects(); got != 1 {
		t.Fatalf("objects = %d", got)
	}
	// The wall-clock ticker advances logical time without any manual Tick.
	waitUntil(t, 2*time.Second, "clock advance", func() bool { return r.Clock() > 0 })

	// A callback re-entering the public API panics at the CALLER (the loop
	// survives and keeps serving).
	mustPanicReentered(t, func() {
		_ = r.With(func(Mutator) { r.NumObjects() })
	})
	if got := r.NumObjects(); got != 1 {
		t.Fatalf("loop dead after guarded panic: objects = %d", got)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := r.With(func(Mutator) {}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("post-Close With error = %v", err)
	}
	if _, err := r.Save(); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("post-Close Save error = %v", err)
	}
}

func TestLiveRuntimeDaemonTickers(t *testing.T) {
	r := NewLiveRuntime("A", nil, Config{LGCEvery: 2, SnapshotEvery: 2, DetectEvery: 2},
		RuntimeConfig{Tick: time.Millisecond})
	defer r.Close()
	waitUntil(t, 2*time.Second, "periodic daemons", func() bool {
		s := r.Stats()
		return s.LGCRuns > 1 && s.Summarizations+s.SummaryCacheHits > 1
	})
	if r.Summary() == nil {
		t.Fatal("no summary after periodic summarization")
	}
}

// TestStartedDaemonsRunInDataFlowOrder: daemons due on the same tick run as
// one input, LGC then summarize then detect, so a started node's journal
// never shows a detection ahead of the summary of its own tick (one select
// over three free-running tickers ordered them by coin toss).
func TestStartedDaemonsRunInDataFlowOrder(t *testing.T) {
	journal := trace.New(1<<12).Only(trace.KindLGC, trace.KindSummarize, trace.KindDetectionStart)
	r := NewLiveRuntime("A", nil,
		Config{LGCEvery: 2, SnapshotEvery: 2, DetectEvery: 2, Trace: journal},
		RuntimeConfig{Tick: time.Millisecond})
	defer r.Close()
	// One standing candidate: an object held only by a scion from B, with a
	// stub back to B, so every detection round starts a detection.
	var obj ids.ObjID
	if err := r.With(func(m Mutator) { obj = m.Alloc(nil) }); err != nil {
		t.Fatal(err)
	}
	if err := r.EnsureScionFor("B", obj); err != nil {
		t.Fatal(err)
	}
	if err := r.HoldRemote(obj, ids.GlobalRef{Node: "B", Obj: 1}); err != nil {
		t.Fatal(err)
	}
	from := r.Clock()
	waitUntil(t, 10*time.Second, "200 ticks", func() bool { return r.Clock() >= from+200 })
	r.Close()

	events := journal.Snapshot()
	if events[0].Kind == trace.KindDropped {
		t.Fatalf("journal overflowed: %s", events[0])
	}
	// What each kind may directly follow; the first event is tick 2's LGC.
	follows := map[trace.Kind][]trace.Kind{
		trace.KindLGC:            {trace.KindSummarize, trace.KindDetectionStart},
		trace.KindSummarize:      {trace.KindLGC},
		trace.KindDetectionStart: {trace.KindSummarize},
	}
	starts := 0
	for i, e := range events {
		if e.Kind == trace.KindDetectionStart {
			starts++
		}
		if i == 0 {
			if e.Kind != trace.KindLGC {
				t.Fatalf("first daemon event is %s, want lgc", e)
			}
			continue
		}
		if prev := events[i-1]; !slices.Contains(follows[e.Kind], prev.Kind) {
			t.Fatalf("event %d out of data-flow order:\n%s\n%s", i, prev, e)
		}
	}
	if starts < 50 {
		t.Fatalf("only %d detections started in 200 ticks; the order check is vacuous", starts)
	}
}

func TestEveryTicks(t *testing.T) {
	const tick = 10 * time.Millisecond
	for _, c := range []struct {
		every    uint64
		interval time.Duration
		want     uint64
	}{
		{0, 20 * time.Millisecond, 2},
		{0, 0, 0},
		{0, 4 * time.Millisecond, 1}, // never rounds a daemon off
		{0, 26 * time.Millisecond, 3},
		{5, 20 * time.Millisecond, 5}, // an explicit Config.*Every wins
		{5, 0, 5},
	} {
		if got := everyTicks(c.every, c.interval, tick); got != c.want {
			t.Errorf("everyTicks(%d, %v, %v) = %d, want %d", c.every, c.interval, tick, got, c.want)
		}
	}
}

func TestSchedulePeriod(t *testing.T) {
	for _, c := range []struct {
		lgc, snap, det, want uint64
	}{
		{2, 4, 4, 4},
		{0, 0, 0, 1},
		{2, 3, 0, 6},
		{2, 4, 100000, 1}, // a parked daemon: no phase worth a pause that long
		{5, 7, 0, 1},      // 35 ticks: likewise
	} {
		if got := schedulePeriod(Config{LGCEvery: c.lgc, SnapshotEvery: c.snap, DetectEvery: c.det}); got != c.want {
			t.Errorf("schedulePeriod(%d, %d, %d) = %d, want %d", c.lgc, c.snap, c.det, got, c.want)
		}
	}
}

// TestStartedNodeKeepsSchedulePhase: a stall long enough for the ticker to
// drop ticks costs the node those ticks, but not its place on the wall clock:
// the daemons come back on the grid they were on, which is the grid of the
// peers started with it.
func TestStartedNodeKeepsSchedulePhase(t *testing.T) {
	const tick = 10 * time.Millisecond
	const period = 4 * tick
	journal := trace.New(1 << 10).Only(trace.KindLGC)
	r := NewLiveRuntime("A", nil, Config{LGCEvery: 4, Trace: journal}, RuntimeConfig{Tick: tick})
	defer r.Close()
	runs := func(n uint64) func() bool {
		return func() bool { return r.Stats().LGCRuns >= n }
	}
	waitUntil(t, 10*time.Second, "collections before the stall", runs(3))
	// Two and a half ticks inside one input: the ticker buffers one tick and
	// drops at least one.
	stalled := time.Now()
	if err := r.With(func(Mutator) { time.Sleep(5 * tick / 2) }); err != nil {
		t.Fatal(err)
	}
	resumed := time.Now().Add(period) // the buffered tick, served late, is not judged
	waitUntil(t, 10*time.Second, "collections after the stall", runs(r.Stats().LGCRuns+4))
	r.Close()

	events := journal.Snapshot()
	after := 0
	for _, e := range events {
		if e.At.After(stalled) && e.At.Before(resumed) {
			continue
		}
		if e.At.After(resumed) {
			after++
		}
		off := e.At.Sub(events[0].At) % period
		if off > period/2 {
			off -= period
		}
		if off.Abs() > tick/2 {
			t.Fatalf("collection %s is %v off the %v grid of the first one", e, off, period)
		}
	}
	if after < 2 {
		t.Fatalf("only %d collections judged after the stall", after)
	}
}

// TestSteppedAndStartedShareOneSchedule: the same Config gives the same
// daemon runs per clock tick whoever says Tick.
func TestSteppedAndStartedShareOneSchedule(t *testing.T) {
	cfg := Config{LGCEvery: 2, SnapshotEvery: 3, DetectEvery: 3}
	started := NewLiveRuntime("A", nil, cfg, RuntimeConfig{Tick: time.Millisecond})
	defer started.Close()
	waitUntil(t, 10*time.Second, "60 ticks", func() bool { return started.Clock() >= 60 })
	got := started.Stats() // one input: clock and counters are of the same tick

	stepped := New("A", nil, cfg)
	for stepped.Clock() < got.Clock {
		stepped.Tick()
	}
	want := stepped.Stats()
	if got.LGCRuns != want.LGCRuns || got.Summarizations != want.Summarizations {
		t.Fatalf("at clock %d: started ran lgc=%d summarize=%d, stepped lgc=%d summarize=%d",
			got.Clock, got.LGCRuns, got.Summarizations, want.LGCRuns, want.Summarizations)
	}
	if want.LGCRuns != got.Clock/2 || want.Summarizations != got.Clock/3 {
		t.Fatalf("at clock %d: lgc=%d summarize=%d, want clock/2 and clock/3", got.Clock, want.LGCRuns, want.Summarizations)
	}
}

func TestLiveRuntimeInvokeOverTCP(t *testing.T) {
	epA, err := transport.ListenTCP("A", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := transport.ListenTCP("B", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	epA.AddPeer("B", epB.Addr())
	epB.AddPeer("A", epA.Addr())

	rcfg := RuntimeConfig{Tick: 5 * time.Millisecond}
	a := NewLiveRuntime("A", epA, Config{CallTimeoutTicks: 200}, rcfg)
	defer a.Close()
	b := NewLiveRuntime("B", epB, Config{CallTimeoutTicks: 200}, rcfg)
	defer b.Close()

	var caller, target ids.ObjID
	if err := a.With(func(m Mutator) {
		caller = m.Alloc(nil)
		_ = m.Root(caller)
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.With(func(m Mutator) {
		target = m.Alloc(nil)
		_ = m.Root(target)
	}); err != nil {
		t.Fatal(err)
	}

	// Acquire B's object, store it, then invoke it — all over real sockets
	// with replies landing on the runtime's loop.
	ref := ids.GlobalRef{Node: "B", Obj: target}
	acquired := make(chan bool, 1)
	if err := a.AcquireRemote(ref, func(m Mutator, ok bool) {
		if ok {
			ok = m.Store(caller, ref) == nil
		}
		acquired <- ok
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("acquire failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire timed out")
	}

	replied := make(chan Reply, 1)
	if err := a.Invoke(ref, "noop", nil, func(_ Mutator, r Reply) { replied <- r }); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-replied:
		if !r.OK {
			t.Fatalf("invoke failed: %s", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("invoke timed out")
	}
	if got := b.Stats().InvokesHandled; got != 1 {
		t.Fatalf("B handled %d invokes", got)
	}
	if got := a.Stats().RepliesHandled; got != 1 {
		t.Fatalf("A handled %d replies", got)
	}
}

func TestLiveRuntimeSaveRestore(t *testing.T) {
	r := NewLiveRuntime("A", nil, Config{}, RuntimeConfig{Tick: time.Millisecond})
	if err := r.With(func(m Mutator) {
		obj := m.Alloc([]byte("keep"))
		_ = m.Root(obj)
	}); err != nil {
		t.Fatal(err)
	}
	data, err := r.Save()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2, err := RestoreLiveRuntime(nil, Config{}, RuntimeConfig{Tick: time.Millisecond}, data)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.NumObjects(); got != 1 {
		t.Fatalf("restored objects = %d", got)
	}
	if r2.ID() != "A" {
		t.Fatalf("restored id = %s", r2.ID())
	}
}
