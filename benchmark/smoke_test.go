package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload once at reduced size with --trace 1 — one
// short untraced segment, one short traced segment, the control and the layer
// probes — and checks the benchmark's own contract: every metric
// BENCHMARK.json names is present and finite, names are well formed, no
// operation failed, the oracle passed. One --trace 0 run joins them, and the
// records round-trip through -compare against themselves: its end-to-end
// verdicts come from that run alone.
func TestSmoke(t *testing.T) {
	bs, _, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runCfg{
		seed: 7, segLen: 200 * time.Millisecond,
		segs: 1, refSegs: 1, tracedSeg: 1,
		warm: 20 * time.Millisecond, setupReps: 1,
		scale: 8, outDir: t.TempDir(),
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	runs := filepath.Join(cfg.outDir, "runs.json")
	if len(bs.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bs.Workloads), len(workloads))
	}
	for _, w := range bs.Workloads {
		sp := findWorkload(w.Name)
		if sp == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
		doc, err := runWorkload(*sp, cfg, 1, bs)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !doc.correct() || doc.Failed != 0 {
			t.Errorf("%s: correct=%v failed_ops=%d violations=%v failures=%v missing=%v",
				w.Name, doc.correct(), doc.Failed, doc.Violations, doc.Failures, doc.Missing)
		}
		for _, defs := range [][]metricDef{bs.EndToEnd, bs.PerLayer} {
			for _, def := range defs {
				if !name.MatchString(def.Name) {
					t.Errorf("metric name %q is malformed", def.Name)
				}
				m, ok := doc.Metrics[def.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s missing or not finite", w.Name, def.Name)
				}
			}
		}
		if len(doc.Metrics) != len(bs.EndToEnd)+len(bs.PerLayer) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d",
				w.Name, len(doc.Metrics), len(bs.EndToEnd)+len(bs.PerLayer))
		}
		if st := doc.Stages; st == nil || st.Units == 0 {
			t.Errorf("%s: traced pass joined no garbage unit", w.Name)
		}
		if doc.Substrate.GOMAXPROCS != procs {
			t.Errorf("%s: ran at GOMAXPROCS %d, the benchmark measures at %d", w.Name, doc.Substrate.GOMAXPROCS, procs)
		}
		if err := appendDoc(runs, doc); err != nil {
			t.Fatal(err)
		}
	}

	doc, err := runWorkload(*findWorkload("rmi"), cfg, 0, bs)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.correct() || doc.Failed != 0 {
		t.Errorf("rmi --trace 0: correct=%v failed_ops=%d missing=%v", doc.correct(), doc.Failed, doc.Missing)
	}
	if err := appendDoc(runs, doc); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if status, err := compareFiles(&table, bs, runs, runs); err != nil || status != 0 {
		t.Errorf("-compare of a result file against itself: status %d, error %v; want 0, nil\n%s", status, err, &table)
	}
	if got := bytes.Count(table.Bytes(), []byte("  ok\n")); got != len(bs.EndToEnd) {
		t.Errorf("-compare gave %d ok verdicts, want one per end-to-end metric of the --trace 0 run (%d)\n%s",
			got, len(bs.EndToEnd), &table)
	}
}

// TestSaturated checks that the saturation flag can fire in the configuration
// the benchmark runs in: capacity is the one P, not the machine's CPUs.
func TestSaturated(t *testing.T) {
	runtime.GOMAXPROCS(procs)
	used := func(cpu time.Duration) window {
		t0 := time.Now()
		return window{a: counters{t: t0}, b: counters{t: t0.Add(time.Second), cpu: cpu}}
	}
	if !saturated(used(800 * time.Millisecond)) {
		t.Errorf("80%% of the only P not flagged as saturated")
	}
	if saturated(used(700 * time.Millisecond)) {
		t.Errorf("70%% of the only P flagged as saturated")
	}
}
