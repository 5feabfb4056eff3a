// Command benchmark is the repository's live-cluster benchmark: it assembles
// an in-process N-node loopback-TCP cluster through admin.StartNode, drives
// it with closed-loop generators, checks ground truth, and reports
// reclamation latency, mutator tax and cost per reclaimed cycle, plus a
// traced per-layer budget. See README.md in this directory.
//
//	benchmark --workload rings3 --seed 1 --seconds 15 --trace 0
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name (one run measures one workload in a process of its own)")
		seed     = flag.Int64("seed", 1, "seed for ring node order, ballast cross-links and payload sizes")
		seconds  = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass and layer probes, per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	bs, root, err := loadBenchSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		status, err := compareFiles(os.Stdout, bs, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		os.Exit(status)
	}
	if *seconds <= 0 {
		*seconds = bs.RunSeconds
	}
	outDir := filepath.Join(root, bs.Paths[0], "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	sp := findWorkload(*workload)
	if sp == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	doc, err := runWorkload(*sp, defaultCfg(*seed, *seconds, outDir), *traceOn, bs)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", sp.Name, err))
	}
	if err := appendDoc(filepath.Join(outDir, "runs.json"), doc); err != nil {
		fatal(err)
	}
	printTable(os.Stderr, doc)
	printContractLine(os.Stdout, doc)
	if !doc.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// defaultCfg splits the measured seconds into five segments. Trace 0 spends
// them all on the end-to-end pass; trace 1 gives two to the untraced
// reference and three to the traced pass.
func defaultCfg(seed int64, seconds int, outDir string) runCfg {
	return runCfg{
		seed:      seed,
		segLen:    time.Duration(seconds) * time.Second / 5,
		segs:      5,
		refSegs:   2,
		tracedSeg: 3,
		warm:      1500 * time.Millisecond,
		setupReps: 5,
		reruns:    2,
		scale:     1,
		outDir:    outDir,
	}
}

// procs is the run's GOMAXPROCS. README.md (Substrate) says why it is 1 and
// not a flag: the bounds were calibrated for one configuration.
const procs = 1

// runWorkload performs one run of one workload and returns its record.
func runWorkload(sp spec, cfg runCfg, traceOn int, bs *benchSpec) (*runDoc, error) {
	runtime.GOMAXPROCS(procs)
	sp = sp.scaled(cfg.scale)
	doc := &runDoc{
		Benchmark:      "dgc live cluster",
		Workload:       sp.Name,
		Seed:           cfg.seed,
		Trace:          traceOn,
		Substrate:      readSubstrate(),
		SegmentSeconds: cfg.segLen.Seconds(),
		Metrics:        map[string]metricOut{},
		DrainClean:     true,
	}
	for _, w := range bs.Workloads {
		if w.Name == sp.Name {
			doc.Why = w.Why
		}
	}

	segs, reps := cfg.segs, cfg.setupReps
	if traceOn != 0 {
		segs, reps = cfg.refSegs, 1
	}
	e2e, err := runPass(sp, cfg, false, segs, reps)
	if err != nil {
		return nil, err
	}
	e2eMetrics(e2e, bs, doc)
	doc.absorb(e2e)
	if saturated(e2e.pooled()) {
		doc.Flags = append(doc.Flags, "saturated: the process used more than 75% of the processors it may run on; not a result")
	}
	if traceOn == 0 {
		return doc, nil
	}

	tp, err := runPass(sp, cfg, true, cfg.tracedSeg, 1)
	if err != nil {
		return nil, err
	}
	doc.absorb(tp)
	off, offSeconds, err := runControl(sp, cfg)
	if err != nil {
		return nil, err
	}
	layer, err := layerMetrics(tp, e2e, off, offSeconds, cfg.scale, doc)
	if err != nil {
		return nil, err
	}
	for _, def := range bs.PerLayer {
		if _, done := doc.Metrics[def.Name]; done {
			continue // measured by the untraced pass
		}
		m := metricOut{Unit: def.Unit, Better: def.Better, Kind: "per_layer", N: 1}
		if v, ok := layer[def.Name]; ok {
			m.Segments = []float64{v}
		}
		doc.put(def.Name, m, median)
	}
	doc.TraceFile = filepath.Join(cfg.outDir, sp.Name+".trace.json")
	if err := tp.l.rec.write(doc.TraceFile, sp.Name, cfg.seed); err != nil {
		return nil, err
	}
	return doc, nil
}

// absorb folds a pass's operation counts, oracle verdict and noise record
// into the run's.
func (d *runDoc) absorb(p *pass) {
	d.Attempted += p.l.attempted.Load()
	d.Failed += p.l.failed.Load() + int64(p.oracle.undrained)
	d.Failures = append(d.Failures, p.l.failures...)
	d.Failures = append(d.Failures, p.oracle.residue...)
	d.Violations = append(d.Violations, p.oracle.violations...)
	d.DrainClean = d.DrainClean && p.oracle.drainClean
	d.DrainMS += p.oracle.drainMS
	d.Flags = append(d.Flags, p.flags...)
	for _, w := range p.segs {
		d.Segments = append(d.Segments, segEnv{StealPct: w.steal(), CalibMS: w.calib,
			CPUPct: 100 * w.cpuSeconds() / w.seconds(), Rerun: w.rerun, Noisy: w.noisy})
		if w.noisy {
			d.Flags = append(d.Flags, "noisy segment kept: steal above 2% or calibration more than 15% off the run median")
		}
	}
}

// appendDoc appends the run to path, so repeated runs accumulate the set
// that -compare reads.
func appendDoc(path string, doc *runDoc) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printContractLine prints the driver's result line: with trace 0 every
// end-to-end metric, with trace 1 every per-layer metric.
func printContractLine(w *os.File, doc *runDoc) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	kind := "end_to_end"
	if doc.Trace != 0 {
		kind = "per_layer"
	}
	ms := map[string]value{}
	for name, m := range doc.Metrics {
		if m.Kind == kind {
			ms[name] = value{m.Value, m.Unit}
		}
	}
	attempted := doc.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": doc.correct(), "attempted": attempted, "failed": doc.Failed, "metrics": ms,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
}

func printTable(w *os.File, doc *runDoc) {
	s := doc.Substrate
	fmt.Fprintf(w, "\n%s  seed=%d trace=%d  num_cpu=%d gomaxprocs=%d %s kernel=%s  %s\n",
		doc.Workload, doc.Seed, doc.Trace, s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.Kernel, s.Network)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tbound\tq1\tq3\tn")
	names := make([]string, 0, len(doc.Metrics))
	for name := range doc.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := doc.Metrics[names[i]], doc.Metrics[names[j]]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := doc.Metrics[name]
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%.6g\t%.6g\t%d\n", name, m.Value, m.Unit, m.Better, bound, m.Q1, m.Q3, m.N)
	}
	tw.Flush()
	fmt.Fprintf(w, "ops attempted=%d failed=%d  safety violations=%d  drain clean=%v (%.0f ms)\n",
		doc.Attempted, doc.Failed, len(doc.Violations), doc.DrainClean, doc.DrainMS)
	if doc.Stages != nil {
		st := doc.Stages
		fmt.Fprintf(w, "stages: tick_wait %.2f + detect %.2f + unravel %.2f ms = %.3f of mean reclamation %.2f ms (%d of %d units joined)\n",
			st.TickWaitMS, st.DetectMS, st.UnravelMS, st.SumOverReclaim, st.ReclaimMeanMS, st.Joined, st.Units)
	}
	for _, list := range [][]string{doc.Violations, doc.Failures, doc.Missing, doc.Flags} {
		for _, msg := range list {
			fmt.Fprintln(w, "  !", msg)
		}
	}
}
