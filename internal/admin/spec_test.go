package admin

import (
	"testing"
	"time"
)

const sampleYAML = `
# three-node demo cluster
cluster:
  name: demo
  tick: 50ms
  detect_every: 4
  state_dir: /tmp/dgc-states
  demo_ring: garbage
  backpressure: true
nodes:
  - id: A
    listen: 127.0.0.1:7001
    admin: 127.0.0.1:9001
  - id: B
    detect_every: 0        # only forced detections
    batch_detect: false
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
	if a.Runtime.DetectInterval != 200*time.Millisecond {
		t.Errorf("A detect interval = %v, want 200ms", a.Runtime.DetectInterval)
	}
	if b.Runtime.DetectInterval != 0 {
		t.Errorf("B detect interval = %v, want 0 (override)", b.Runtime.DetectInterval)
	}
	if !a.Runtime.Backpressure || !b.Runtime.Backpressure {
		t.Error("backpressure default did not propagate")
	}
	// Batched detection defaults ON for declarative clusters; the per-node
	// escape hatch turns it off.
	if a.Config.BatchDetection == nil || !*a.Config.BatchDetection {
		t.Error("A batch detection should default on")
	}
	if b.Config.BatchDetection == nil || *b.Config.BatchDetection {
		t.Error("B batch detection should honor the escape hatch")
	}
	if a.StateFile != "/tmp/dgc-states/A.state" {
		t.Errorf("A state file = %q", a.StateFile)
	}
	// dgc-node built-in defaults fill the rest.
	if a.Config.CandidateMinAge != 4 || a.Config.CallTimeoutTicks != 40 {
		t.Errorf("A config defaults = %+v", a.Config)
	}
	if a.Runtime.LGCInterval != 100*time.Millisecond {
		t.Errorf("A lgc interval = %v, want 100ms (2 ticks)", a.Runtime.LGCInterval)
	}
}

func TestParseClusterSpecJSON(t *testing.T) {
	jsonSpec := `{
	  "cluster": {"tick": "25ms", "batch_detect": false, "seed_objects": 2},
	  "nodes": [{"id": "X"}, {"id": "Y", "seed_objects": 0}]
	}`
	spec, err := ParseClusterSpec([]byte(jsonSpec))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Runtime.Tick != 25*time.Millisecond {
		t.Errorf("X tick = %v", specs[0].Runtime.Tick)
	}
	if specs[0].Config.BatchDetection == nil || *specs[0].Config.BatchDetection {
		t.Error("X batch detection should be off (cluster default false)")
	}
	if specs[0].SeedObjects != 2 || specs[1].SeedObjects != 0 {
		t.Errorf("seed objects = %d/%d, want 2/0", specs[0].SeedObjects, specs[1].SeedObjects)
	}
}

func TestParseClusterSpecErrors(t *testing.T) {
	cases := map[string]string{
		"unknown key":    "cluster:\n  wibble: 3\nnodes:\n  - id: A\n",
		"workers key":    "nodes:\n  - id: A\n    workers: 4\n",
		"bad duration":   "cluster:\n  tick: fast\nnodes:\n  - id: A\n",
		"stray content":  "tick: 50ms\n",
		"field before -": "nodes:\n  id: A\n",
	}
	for name, text := range cases {
		if _, err := ParseClusterSpec([]byte(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
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
