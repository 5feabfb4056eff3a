package admin

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/node"
)

const sampleYAML = `
# three-node demo cluster
cluster:
  name: demo
  tick: 50ms
  detect_every: 4
  state_dir: /tmp/dgc-states
  demo_ring: garbage
  mailbox: 64
nodes:
  - id: A
    listen: 127.0.0.1:7001
    admin: 127.0.0.1:9001
  - id: B
    detect_every: 0        # only forced detections
  - id: C
`

func TestParseClusterSpecYAML(t *testing.T) {
	spec, err := ParseClusterSpec([]byte(sampleYAML))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "demo" || spec.DemoRing != "garbage" || spec.StateDir != "/tmp/dgc-states" {
		t.Errorf("cluster header = %+v", spec)
	}
	if len(spec.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(spec.Nodes))
	}
	if spec.Nodes[0].ID != "A" || spec.Nodes[0].Listen != "127.0.0.1:7001" || spec.Nodes[0].Admin != "127.0.0.1:9001" {
		t.Errorf("node A = %+v", spec.Nodes[0])
	}

	specs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	a, b := specs[0], specs[1]
	if a.Runtime.Tick != 50*time.Millisecond {
		t.Errorf("A tick = %v", a.Runtime.Tick)
	}
	if a.Config.DetectEvery != 4 {
		t.Errorf("A detect every = %d, want 4", a.Config.DetectEvery)
	}
	if b.Config.DetectEvery != 0 {
		t.Errorf("B detect every = %d, want 0 (override)", b.Config.DetectEvery)
	}
	if a.Runtime.Mailbox != 64 || b.Runtime.Mailbox != 64 {
		t.Errorf("mailbox default did not propagate: A %d, B %d", a.Runtime.Mailbox, b.Runtime.Mailbox)
	}
	if a.StateFile != "/tmp/dgc-states/A.state" {
		t.Errorf("A state file = %q", a.StateFile)
	}
	// dgc-node built-in defaults fill the rest.
	if a.Config.CandidateMinAge != 4 || a.Config.CallTimeoutTicks != 40 {
		t.Errorf("A config defaults = %+v", a.Config)
	}
	if a.Config.LGCEvery != 2 || a.Config.SnapshotEvery != 4 {
		t.Errorf("A lgc/snapshot every = %d/%d, want the 2/4 defaults", a.Config.LGCEvery, a.Config.SnapshotEvery)
	}
}

// TestExampleSpecsResolve pins what the committed example files mean: the
// NodeSpecs below are what they resolved to before the settings table
// replaced the four-pass pipeline, written out by hand.
func TestExampleSpecsResolve(t *testing.T) {
	want := func(id string, detectEvery uint64, memb membership.Config) NodeSpec {
		ns := NodeSpec{ID: ids.NodeID(id), Peers: map[ids.NodeID]string{}}
		ns.Config.CandidateMinAge = 2
		ns.Config.CallTimeoutTicks = 40
		ns.Config.LGCEvery = 2
		ns.Config.SnapshotEvery = 4
		ns.Config.DetectEvery = detectEvery
		ns.Config.Membership = &memb
		ns.Runtime = node.RuntimeConfig{Tick: 50 * time.Millisecond}
		return ns
	}
	for file, mk := range map[string]func(id string) NodeSpec{
		"cluster.yaml": func(id string) NodeSpec { return want(id, 4, membership.Config{}) },
		"cluster-members.yaml": func(id string) NodeSpec {
			return want(id, 100000, membership.Config{SuspectAfter: 8, DeadAfter: 8, LeaseTicks: 60})
		},
	} {
		text, err := os.ReadFile(filepath.Join("..", "..", "examples", file))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseClusterSpec(text)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if spec.DemoRing != "garbage" || spec.Name != "" || spec.StateDir != "" {
			t.Errorf("%s: cluster header = %q %q %q", file, spec.Name, spec.DemoRing, spec.StateDir)
		}
		got, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(got) != 3 {
			t.Fatalf("%s: %d nodes, want 3", file, len(got))
		}
		for i, id := range []string{"A", "B", "C"} {
			if !reflect.DeepEqual(got[i], mk(id)) {
				t.Errorf("%s node %s:\n got %+v\nwant %+v", file, id, got[i], mk(id))
			}
			if spec.Nodes[i].Admin != "" {
				t.Errorf("%s node %s: admin %q", file, id, spec.Nodes[i].Admin)
			}
		}
	}
}

func TestParseClusterSpecErrors(t *testing.T) {
	cases := map[string]string{
		"unknown key":    "cluster:\n  wibble: 3\nnodes:\n  - id: A\n",
		"workers key":    "nodes:\n  - id: A\n    workers: 4\n",
		"backpressure":   "cluster:\n  backpressure: true\nnodes:\n  - id: A\n",
		"credit window":  "nodes:\n  - id: A\n    credit_window: 4\n",
		"bad duration":   "cluster:\n  tick: fast\nnodes:\n  - id: A\n",
		"stray content":  "tick: 50ms\n",
		"field before -": "nodes:\n  id: A\n",
	}
	for name, text := range cases {
		if _, err := ParseClusterSpec([]byte(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
	// A removed key is an unknown key like any other, named with its line.
	for key, val := range map[string]string{"batch_detect": "true", "aggregate_detect": "true", "fault_seed": "1", "membership": "false"} {
		_, err := ParseClusterSpec([]byte("nodes:\n  - id: A\n    " + key + ": " + val + "\n"))
		if err == nil || !strings.Contains(err.Error(), `line 3: unknown setting "`+key+`"`) {
			t.Errorf("%s: error %v, want line 3: unknown setting", key, err)
		}
	}
	// Structural errors surface at Resolve.
	for name, text := range map[string]string{
		"no nodes":     "cluster:\n  tick: 50ms\n",
		"duplicate id": "nodes:\n  - id: A\n  - id: A\n",
		"missing id":   "nodes:\n  - listen: 127.0.0.1:0\n",
		"bad ring":     "cluster:\n  demo_ring: pentagon\nnodes:\n  - id: A\n",
	} {
		spec, err := ParseClusterSpec([]byte(text))
		if err != nil {
			continue // also acceptable at parse time
		}
		if _, err := spec.Resolve(); err == nil {
			t.Errorf("%s: resolved %q", name, text)
		}
	}
}

// FuzzParseClusterSpec hardens the spec parser, whose input an operator
// writes (dgcctl up -f): it must never panic, and a spec it accepts must
// resolve or say why not, handing out runnable node specs when it does.
func FuzzParseClusterSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.yaml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example specs: %v", err)
	}
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add([]byte(sampleYAML))

	f.Fuzz(func(t *testing.T, text []byte) {
		spec, err := ParseClusterSpec(text)
		if err != nil {
			return // rejection is fine; panics are not
		}
		nodes, err := spec.Resolve()
		if err != nil {
			return
		}
		for _, ns := range nodes {
			if ns.ID == "" || ns.Runtime.Tick <= 0 || ns.Peers == nil {
				t.Fatalf("resolved an unrunnable node spec %+v", ns)
			}
		}
	})
}
