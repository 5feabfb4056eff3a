package admin

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/obs"
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

// TestNodeCountsContinueAcrossRestart: the supervisor's node block and the
// runtime's are the same instruments of one registry, which the supervisor
// keeps across Kill/Restart, so the counts continue through the restart —
// three collections sweeping one object each read 3, not the 1 since the
// restore — and equal their families' samples in /metrics.
func TestNodeCountsContinueAcrossRestart(t *testing.T) {
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

	dump := sup.Metrics().Dump()
	for _, met := range []*obs.NodeMetrics{sup.NodeMetrics(), sup.Runtime().Metrics()} {
		for family, c := range map[string]*obs.Counter{
			"dgc_lgc_runs_total":          met.LGCRuns,
			"dgc_lgc_objects_swept_total": met.ObjectsSwept,
		} {
			if got := c.Value(); got != 3 || float64(got) != dump[family+`{node="P1"}`] {
				t.Errorf("%s = %d after the restart, /metrics %v; want 3 in both", family, got, dump[family+`{node="P1"}`])
			}
		}
	}
}

func mustRef(t *testing.T, s string) ids.RefID {
	t.Helper()
	r, err := ids.ParseRefID(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
