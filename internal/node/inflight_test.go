package node

import (
	"strings"
	"testing"

	"dgc/internal/ids"
	"dgc/internal/obs"
	"dgc/internal/trace"
)

// gcRounds runs explicit collection rounds — every node's LGC, then its
// summary and detection, each step settled — until the cluster holds no
// objects, scions or stubs.
func gcRounds(t *testing.T, tn *testNet, names []ids.NodeID, maxRounds int) {
	t.Helper()
	left := func() int {
		total := 0
		for _, id := range names {
			total += tn.n(id).NumObjects() + tn.n(id).NumScions() + tn.n(id).NumStubs()
		}
		return total
	}
	for round := 0; left() != 0; round++ {
		if round == maxRounds {
			t.Fatalf("%d objects+scions+stubs left after %d GC rounds", left(), maxRounds)
		}
		for _, id := range names {
			tn.n(id).RunLGC()
		}
		tn.settle()
		for _, id := range names {
			if err := tn.n(id).Summarize(); err != nil {
				t.Fatal(err)
			}
			tn.n(id).RunDetection()
		}
		tn.settle()
	}
}

// TestInflightHoldsOnlyWhatIsInFlight: a stepped 3-node cluster detects and
// reclaims 200 garbage rings. Every node launches one detection per ring and
// each closes at its ring's last process, so at quiescence no node tracks
// any detection (the table used to keep every launched and every forwarded
// one, 400 per node here, until its cap flushed it), while the journal's
// detection-end events and the latency samples are the ones the table always
// produced: one per detection, 600, as at the parent commit.
func TestInflightHoldsOnlyWhatIsInFlight(t *testing.T) {
	const rings, batch = 200, 20
	names := []ids.NodeID{"inflight-A", "inflight-B", "inflight-C"}
	journal := trace.New(1 << 16)
	tn := newTestNet(t, Config{Metrics: obs.NewSet(), Trace: journal}, names...)
	for done := 0; done < rings; done += batch {
		for r := 0; r < batch; r++ {
			var objs [3]ids.ObjID
			for i, id := range names {
				objs[i] = alloc(tn.n(id))
			}
			for i, id := range names {
				next := (i + 1) % len(names)
				tn.grant(id, objs[i], names[next], objs[next])
			}
		}
		gcRounds(t, tn, names, 12)
	}

	var samples uint64
	for _, id := range names {
		met := tn.n(id).mach.Metrics()
		if got := len(tn.n(id).mach.inflight); got != 0 {
			t.Errorf("%s: %d detections still tracked at quiescence", id, got)
		}
		samples += met.DetectionLatency.Count()
	}
	const detections = rings * 3
	outcomes, ended := map[string]int{}, map[uint64]bool{}
	for _, e := range journal.OfKind(trace.KindDetectionEnd) {
		outcomes[e.Detail[strings.LastIndex(e.Detail, "outcome=")+len("outcome="):]]++
		ended[e.Trace] = true
	}
	if journal.Dropped() != 0 {
		t.Fatalf("journal evicted %d events; enlarge it", journal.Dropped())
	}
	if outcomes["cycle-found"] != detections || len(outcomes) != 1 || len(ended) != detections {
		t.Errorf("detection-end outcomes = %v over %d detections, want cycle-found: %d, once each",
			outcomes, len(ended), detections)
	}
	if samples != detections {
		t.Errorf("dgc_detection_latency_seconds_count = %d cluster-wide, want %d", samples, detections)
	}
}

// TestLiveRingDrawsNoPartialReturn: a node returns its view to a detection's
// origin only after a branch is cut for carrying no new information. On a
// ring held live by a root at C, every detection launched at A or B ends at
// C, whose stub is locally reachable; that cut, like a safety-rule-1 drop,
// carries nothing the origin can use, so no origin receives a return.
func TestLiveRingDrawsNoPartialReturn(t *testing.T) {
	names := []ids.NodeID{"live-A", "live-B", "live-C"}
	tn := newTestNet(t, Config{}, names...)
	objs := [3]ids.ObjID{alloc(tn.n(names[0])), alloc(tn.n(names[1])), allocRooted(t, tn.n(names[2]))}
	for i, id := range names {
		next := (i + 1) % len(names)
		tn.grant(id, objs[i], names[next], objs[next])
	}
	started := 0
	for round := 0; round < 4; round++ {
		for _, id := range names {
			tn.n(id).RunLGC()
		}
		tn.settle()
		for _, id := range names {
			if err := tn.n(id).Summarize(); err != nil {
				t.Fatal(err)
			}
			started += tn.n(id).RunDetection()
		}
		tn.settle()
	}
	if started == 0 {
		t.Fatal("no detection launched on the live ring")
	}
	for _, id := range names {
		if got := tn.n(id).Stats().PartialReturns; got != 0 {
			t.Errorf("%s: %d partial returns received from cuts at a locally reachable stub", id, got)
		}
		if got := tn.n(id).NumObjects(); got != 1 {
			t.Errorf("%s: %d objects, want its ring object", id, got)
		}
	}
}
