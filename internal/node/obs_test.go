package node

import (
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/obs"
	"dgc/internal/wire"
)

// TestLiveRuntimeMailboxOverflow pins the drop-on-full contract: with the
// loop wedged and the mailbox at capacity, inbound transport deliveries are
// discarded — counted once, in the dgc_mailbox_dropped_total metric, which
// DroppedInbound reads back — and the runtime keeps serving once unwedged.
func TestLiveRuntimeMailboxOverflow(t *testing.T) {
	const cap = 4
	r := NewLiveRuntime("A", nil, Config{}, RuntimeConfig{Tick: time.Hour, Mailbox: cap})
	defer r.Close()

	// Wedge the loop inside a local call so nothing drains the mailbox.
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		_ = r.do("block", func(*Machine) {
			close(started)
			<-release
		})
	}()
	<-started

	// Flood with messages a machine handles as no-ops (ack for an unknown
	// export). The loop is inside consume, so exactly cap of them queue.
	const flood = 100
	for i := 0; i < flood; i++ {
		r.handleMessage("B", &wire.CreateScionAck{ExportID: 999, OK: true})
	}
	if got := r.DroppedInbound(); got != flood-cap {
		t.Fatalf("DroppedInbound = %d, want %d", got, flood-cap)
	}
	if got := r.mach.Metrics().MailboxDropped.Value(); got != flood-cap {
		t.Fatalf("dgc_mailbox_dropped_total = %d, want %d", got, flood-cap)
	}

	// Unwedge: the queued messages drain and the runtime makes progress.
	close(release)
	<-blocked
	if err := r.With(func(m Mutator) {
		obj := m.Alloc(nil)
		if err := m.Root(obj); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.NumObjects(); got != 1 {
		t.Fatalf("objects after overflow = %d", got)
	}

	// The debug snapshot surfaces the same mailbox accounting.
	ds := r.DebugSnapshot()
	if ds.Mailbox == nil {
		t.Fatal("runtime snapshot has no mailbox stats")
	}
	if ds.Mailbox.Capacity != cap || ds.Mailbox.Dropped != flood-cap {
		t.Fatalf("mailbox stats = %+v", *ds.Mailbox)
	}
}

// TestMachineMetricsDaemons verifies the collector instruments move when the
// daemons run, and that gauges track structural state.
func TestMachineMetricsDaemons(t *testing.T) {
	set := obs.NewSet()
	m := NewMachine("A", Config{Metrics: set})
	m.With(func(mu Mutator) {
		live := mu.Alloc(nil)
		if err := mu.Root(live); err != nil {
			t.Error(err)
		}
		mu.Alloc(nil) // unrooted: swept by the next LGC
	})

	res := m.RunLGC()
	met := m.Metrics()
	if met.LGCRuns.Value() != 1 || met.LGCDuration.Count() != 1 {
		t.Fatalf("LGC instruments: runs=%d durations=%d", met.LGCRuns.Value(), met.LGCDuration.Count())
	}
	if met.ObjectsSwept.Value() != uint64(res.Swept) || res.Swept != 1 {
		t.Fatalf("swept: metric=%d result=%d", met.ObjectsSwept.Value(), res.Swept)
	}
	if met.HeapObjects.Value() != 1 {
		t.Fatalf("dgc_heap_objects = %d", met.HeapObjects.Value())
	}

	if err := m.Summarize(); err != nil {
		t.Fatal(err)
	}
	if met.Summarizations.Value() != 1 || met.SummarizeDuration.Count() != 1 {
		t.Fatalf("summarize instruments: %d/%d", met.Summarizations.Value(), met.SummarizeDuration.Count())
	}
	// Unchanged heap: the second run is a cache hit, not a rebuild.
	if err := m.Summarize(); err != nil {
		t.Fatal(err)
	}
	if met.Summarizations.Value() != 2 || met.SummaryCacheHits.Value() != 1 {
		t.Fatalf("cache hit not counted: total=%d hits=%d",
			met.Summarizations.Value(), met.SummaryCacheHits.Value())
	}

	// The shared set carries the node label on every series.
	d := set.Dump()
	if d[`dgc_lgc_runs_total{node="A"}`] != 1 {
		t.Fatalf("set dump missing labeled series: %v", d)
	}
}

// TestForceDetectWithoutFirstHopNotStarted: a forced detection whose
// candidate's object holds no remote reference ends without a first hop, so
// it never started — in Stats as in dgc_detections_started_total, which
// Stats reads.
func TestForceDetectWithoutFirstHopNotStarted(t *testing.T) {
	set := obs.NewSet()
	m := NewMachine("A", Config{Metrics: set})
	var obj ids.ObjID
	m.With(func(mu Mutator) { obj = mu.Alloc(nil) })
	if err := m.EnsureScionFor("B", obj); err != nil {
		t.Fatal(err)
	}
	res, err := m.ForceDetect(ids.RefID{Src: "B", Dst: ids.GlobalRef{Node: "A", Obj: obj}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "branch-ended" || res.Forwarded != 0 {
		t.Fatalf("forced detection = %+v, want a branch end with nothing sent", res)
	}
	family := set.Dump()[`dgc_detections_started_total{node="A"}`]
	if got := m.Stats().Detector.Started; float64(got) != family || got != 0 {
		t.Fatalf("Stats().Detector.Started = %d, dgc_detections_started_total = %v; want both 0", got, family)
	}
}

// TestMachineDebugSnapshot checks the structural /debug/dgc view at the
// machine level (no runtime: no mailbox block).
func TestMachineDebugSnapshot(t *testing.T) {
	m := NewMachine("A", Config{})
	m.With(func(mu Mutator) {
		obj := mu.Alloc(nil)
		if err := mu.Root(obj); err != nil {
			t.Error(err)
		}
	})
	m.RunLGC()

	ds := m.DebugSnapshot()
	if ds.Node != "A" || ds.Objects != 1 {
		t.Fatalf("snapshot identity: %+v", ds)
	}
	if ds.LastLGC == "" {
		t.Fatal("LastLGC not stamped after RunLGC")
	}
	if ds.Mailbox != nil {
		t.Fatal("machine-level snapshot must not invent mailbox stats")
	}
}
