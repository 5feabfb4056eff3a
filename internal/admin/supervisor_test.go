package admin

import (
	"os"
	"path/filepath"
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

func TestSupervisorRestoreState(t *testing.T) {
	sup, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	state, err := sup.Save()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate past the snapshot, then restore: the heap rolls back.
	if err := sup.Runtime().With(func(m node.Mutator) { m.Alloc(nil) }); err != nil {
		t.Fatal(err)
	}
	if got := sup.DebugSnapshot().Objects; got != 5 {
		t.Fatalf("objects = %d, want 5", got)
	}
	if err := sup.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if got := sup.DebugSnapshot().Objects; got != 4 {
		t.Errorf("objects after restore = %d, want 4", got)
	}
}

// TestRestoreStateRejectsCorruptAndKeepsServing: one bad restore (truncated
// upload, wrong file) must not cost a healthy node — it keeps its runtime,
// its heap and its endpoint, and the kill/restart lifecycle still works.
func TestRestoreStateRejectsCorruptAndKeepsServing(t *testing.T) {
	sup, err := StartNode(NodeSpec{ID: "P1", SeedObjects: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	good, err := sup.Save()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"not a state file": []byte("definitely not collector state"),
		"truncated":        good[:len(good)/2],
		"empty":            nil,
	} {
		if err := sup.RestoreState(data); err == nil {
			t.Fatalf("%s: RestoreState accepted corrupt data", name)
		}
		if sup.State() != "running" {
			t.Fatalf("%s: state = %q after a refused restore, want running", name, sup.State())
		}
		if got := sup.DebugSnapshot().Objects; got != 3 {
			t.Fatalf("%s: objects = %d after a refused restore, want 3", name, got)
		}
	}
	addr := sup.Addr()
	if err := sup.Kill(0); err != nil {
		t.Fatalf("kill after refused restores: %v", err)
	}
	if err := sup.Restart(); err != nil {
		t.Fatalf("restart after refused restores: %v", err)
	}
	if sup.Addr() != addr || sup.DebugSnapshot().Objects != 3 {
		t.Errorf("after restart: addr %s (want %s), %d objects (want 3)", sup.Addr(), addr, sup.DebugSnapshot().Objects)
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
