package admin

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/node"
)

func TestSupervisorLifecycle(t *testing.T) {
	sup, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	if sup.State() != "running" {
		t.Fatalf("state = %q, want running", sup.State())
	}
	if sup.Addr() == "" {
		t.Fatal("no concrete address after start")
	}
	if got := sup.DebugSnapshot().Objects; got != 3 {
		t.Fatalf("objects = %d, want 3 seeded", got)
	}

	addr := sup.Addr()
	if err := sup.Kill(0); err != nil {
		t.Fatal(err)
	}
	if sup.State() != "down" {
		t.Fatalf("state after kill = %q", sup.State())
	}
	if _, err := sup.ForceDetect(mustRef(t, "P2->1@P1")); err == nil {
		t.Error("ForceDetect on a down node should error")
	}
	// The debug view degrades to a stub naming the node, not a panic.
	if snap := sup.DebugSnapshot(); snap.Node != "P1" || snap.Objects != 0 {
		t.Errorf("down snapshot = %+v", snap)
	}

	if err := sup.Restart(); err != nil {
		t.Fatal(err)
	}
	if sup.State() != "running" {
		t.Fatalf("state after restart = %q", sup.State())
	}
	if sup.Addr() != addr {
		t.Errorf("address changed across restart: %s -> %s", addr, sup.Addr())
	}
	// The heap came back from the kill-time snapshot, not re-seeded.
	if got := sup.DebugSnapshot().Objects; got != 3 {
		t.Errorf("objects after restart = %d, want 3 restored", got)
	}
}

func TestSupervisorKillAutoRecover(t *testing.T) {
	sup, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	if err := sup.Kill(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sup.State() != "running" {
		if time.Now().After(deadline) {
			t.Fatal("node never auto-recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sup.DebugSnapshot().Objects; got != 1 {
		t.Errorf("objects after auto-recover = %d, want 1", got)
	}
}

func TestSupervisorStateFileRoundTrip(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "p1.state")
	sup, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 2, StateFile: stateFile})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stateFile); err != nil {
		t.Fatalf("state file not written: %v", err)
	}
	// Stop is terminal and idempotent.
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Restart(); err == nil {
		t.Error("restart after stop should error")
	}

	// A fresh supervisor on the same state file resumes the heap without
	// re-seeding.
	sup2, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 99, StateFile: stateFile})
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Stop()
	if got := sup2.DebugSnapshot().Objects; got != 2 {
		t.Errorf("objects after state-file restart = %d, want 2 (no re-seed)", got)
	}
}

// TestStopWriteFailureKeepsStateFile: a Stop whose state write fails
// leaves the previous state file byte for byte, because the new bytes only
// ever replace it by rename. The write is made to fail by a directory
// squatting on the temporary file's name.
func TestStopWriteFailureKeepsStateFile(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "p1.state")
	sup, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 2, StateFile: stateFile})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(stateFile)
	if err != nil {
		t.Fatal(err)
	}

	sup2, err := StartNode(NodeSpec{ID: "P1", StateFile: stateFile})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup2.Runtime().With(func(m node.Mutator) { m.Alloc(nil) }); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(stateFile+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sup2.Stop(); err == nil {
		t.Fatal("Stop reported success with its temporary file blocked")
	}
	after, err := os.ReadFile(stateFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed Stop changed the state file: %d bytes before, %d after", len(before), len(after))
	}
}

// TestStartNodeRefusesCorruptStateFile: a state file that does not decode
// (a wrong file, a torn copy, an empty one) is refused at start, and the
// refused start leaves its listen address free for the next attempt.
func TestStartNodeRefusesCorruptStateFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.state")
	sup, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 3, StateFile: good})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"not a state file": []byte("definitely not collector state"),
		"truncated":        data[:len(data)/2],
		"empty":            {},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".state")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		addr := freeAddr(t)
		if sup, err := StartNode(NodeSpec{ID: "P1", Listen: addr, StateFile: path}); err == nil {
			sup.Stop()
			t.Fatalf("%s: StartNode accepted the state file", name)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("%s: listen address still held after the refused start: %v", name, err)
		}
		ln.Close()
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// statsFamilies names the metric family each node.Stats counter reads.
var statsFamilies = map[string]string{
	"InvokesSent":          "dgc_invokes_sent_total",
	"InvokesHandled":       "dgc_invokes_handled_total",
	"RepliesHandled":       "dgc_replies_handled_total",
	"CallsFailed":          "dgc_calls_failed_total",
	"ScionsCreated":        "dgc_scions_created_total",
	"ScionsDropped":        "dgc_scions_dropped_total",
	"LGCRuns":              "dgc_lgc_runs_total",
	"ObjectsSwept":         "dgc_lgc_objects_swept_total",
	"Summarizations":       "dgc_summarizations_total",
	"StubSetsSent":         "dgc_stub_sets_sent_total",
	"StubSetsApplied":      "dgc_stub_sets_applied_total",
	"CDMsDeduped":          "dgc_cdms_deduped_total",
	"CDMsRaceDropped":      "dgc_cdms_race_dropped_total",
	"BatchCDMsSent":        "dgc_batch_cdms_sent_total",
	"BatchSectionsSent":    "dgc_batch_cdm_sections_sum",
	"PartialReturns":       "dgc_partial_returns_total",
	"DetectionRelaunches":  "dgc_detection_relaunches_total",
	"Detector.Started":     "dgc_detections_started_total",
	"Detector.CDMsSent":    "dgc_cdms_sent_total",
	"Detector.CDMsHandled": "dgc_cdms_handled_total",
	"Detector.Dropped":     "dgc_cdms_dropped_total",
	"Detector.Aborted":     "dgc_detections_aborted_total",
	"Detector.CyclesFound": "dgc_cycles_found_total",
	"Detector.ScionsFreed": "dgc_scions_freed_total",
}

// TestStatsAreTheRegistryAcrossRestart: Stats is a read of the node's metric
// registry, which the supervisor keeps across Kill/Restart, so every counter
// equals its family's sample and continues through the restart — three
// collections sweeping one object each read 3, not the 1 since the restore.
func TestStatsAreTheRegistryAcrossRestart(t *testing.T) {
	sup, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	collect := func() {
		t.Helper()
		if err := sup.Runtime().With(func(m node.Mutator) { m.Alloc(nil) }); err != nil {
			t.Fatal(err)
		}
		if res := sup.Runtime().RunLGC(); res.Swept != 1 {
			t.Fatalf("swept %d, want the one unrooted object", res.Swept)
		}
	}
	collect()
	collect()
	if err := sup.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := sup.Restart(); err != nil {
		t.Fatal(err)
	}
	collect()

	s := sup.Stats()
	if s.LGCRuns != 3 || s.ObjectsSwept != 3 {
		t.Errorf("LGCRuns %d, ObjectsSwept %d after the restart; want 3 and 3", s.LGCRuns, s.ObjectsSwept)
	}
	dump := sup.Metrics().Dump()
	check := func(path string, got uint64) {
		family, ok := statsFamilies[path]
		if !ok {
			t.Errorf("Stats.%s names no family", path)
			return
		}
		want, ok := dump[family+`{node="P1"}`]
		if !ok {
			t.Errorf("Stats.%s: no %s sample", path, family)
		} else if float64(got) != want {
			t.Errorf("Stats.%s = %d, %s = %v", path, got, family, want)
		}
	}
	notCounts := map[string]bool{"Clock": true, "ExportsPending": true, "SnapshotBytes": true}
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		switch {
		case notCounts[name]:
		case f.Kind() == reflect.Struct:
			for j := 0; j < f.NumField(); j++ {
				check(name+"."+f.Type().Field(j).Name, f.Field(j).Uint())
			}
		default:
			check(name, f.Uint())
		}
	}
}

func mustRef(t *testing.T, s string) ids.RefID {
	t.Helper()
	r, err := ParseRefID(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
