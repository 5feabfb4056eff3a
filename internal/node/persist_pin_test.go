package node

import (
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dgc/internal/ids"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSaveBytesPinned pins the state-file format byte for byte: a node
// holding stubs into three peers and scions from two of them, with outbound
// and inbound sequence numbers, one peer of which has lost its last stub
// (and is owed empty sets from then on). Round-trip tests alone would not
// notice the table layout leaking into the file.
func TestSaveBytesPinned(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B", "C", "D")
	a := tn.n("A")
	holder := allocRooted(t, a)
	targets := map[ids.NodeID]ids.ObjID{}
	for _, peer := range []ids.NodeID{"B", "C", "D"} {
		targets[peer] = alloc(tn.n(peer))
		tn.grant("A", holder, peer, targets[peer])
	}
	for _, peer := range []ids.NodeID{"B", "C"} {
		tn.grant(peer, allocRooted(t, tn.n(peer)), "A", alloc(a))
	}
	if err := a.Invoke(ids.GlobalRef{Node: "B", Obj: targets["B"]}, "noop", nil, nil); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	a.RunLGC()
	tn.n("B").RunLGC()
	tn.n("C").RunLGC()
	tn.settle()
	a.With(func(m Mutator) {
		if err := m.Drop(holder, ids.GlobalRef{Node: "D", Obj: targets["D"]}); err != nil {
			t.Fatal(err)
		}
	})
	a.RunLGC() // D's last stub dies: D gets an empty set at seq 2
	tn.settle()
	if a.NumStubs() != 2 || a.NumScions() != 2 {
		t.Fatalf("setup: %d stubs, %d scions, want 2 and 2", a.NumStubs(), a.NumScions())
	}

	data, err := a.Save()
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(data) + "\n"
	path := filepath.Join("testdata", "save_pinned.hex")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("state file drifted from %s:\n got  %s want %s", path, got, strings.TrimSpace(string(want)))
	}
}
