// dgc-bench regenerates the paper's evaluation, printing the same rows the
// paper reports. Each experiment is named for the part of the paper it
// serves (DESIGN.md §3):
//
//	table1         Table 1: RMI time, plain vs DGC-extended
//	serialization  §4: snapshot serialization, naive vs binary codec, ± stubs
//	scale          Figure 3, generalized: detection cost vs ring size
//	loss           §1: collection under GC-message loss
//	race           Figure 5, quantified: mutator races abort, never misfire
//	lease          §4: "a safe DGC (not a lease-based one)"
//	disruption     §4: snapshot pause against invocation latency
//	batch          completeness under density: traffic vs candidates
//
// Usage:
//
//	dgc-bench [-exp all|table1|serialization|scale|loss|race|lease|disruption|batch]
//	          [-quick] [-cpuprofile FILE] [-memprofile FILE]
//
// Absolute numbers differ from the paper (simulated substrate vs the
// authors' Pentium 4 Rotor testbed); the SHAPES are the reproduction
// target: DGC overhead per call within a modest band, naive-vs-binary
// serialization two orders of magnitude apart, stubs adding sub-linear
// cost, detection cost linear in cycle length, no live object lost to a
// race or to loss. Per-layer timings (summarize, CDM hop, wire codec) are
// `go test -bench` benchmarks in bench_test.go, not experiments here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"dgc/internal/experiments"
)

// exps lists the experiments in the order -exp all runs them.
var exps = []struct {
	name string
	fn   func(w io.Writer, quick bool) error
}{
	{"table1", runTable1},
	{"serialization", runSerialization},
	{"scale", runScale},
	{"loss", runLoss},
	{"race", runRace},
	{"lease", runLease},
	{"disruption", runDisruption},
	{"batch", runBatch},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the experiments selected by args, writing their tables to
// out (diagnostics go to stderr) and returning the exit code: 2 for a usage
// error, such as an -exp that names no experiment, and 1 for a failed run.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("dgc-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run")
	quick := fs.Bool("quick", false, "smaller parameters for a fast run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := make([]string, len(exps))
	known := *exp == "all"
	for i, e := range exps {
		names[i] = e.name
		known = known || e.name == *exp
	}
	if !known {
		fmt.Fprintf(os.Stderr, "dgc-bench: unknown experiment %q (valid: all, %s)\n", *exp, strings.Join(names, ", "))
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dgc-bench: cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dgc-bench: cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Fprintf(out, "==== %s ====\n", e.name)
		start := time.Now()
		if err := e.fn(out, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "dgc-bench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(out, "(%s in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dgc-bench: memprofile:", err)
			return 1
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dgc-bench: memprofile:", err)
			return 1
		}
	}
	return 0
}

func tw(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

// runTable1 reproduces Table 1: RMI in original Rotor and DGC-extended.
func runTable1(out io.Writer, quick bool) error {
	counts := []int{10, 100, 500, 1000}
	if quick {
		counts = []int{10, 100}
	}
	rows, err := experiments.Table1(counts, 10)
	if err != nil {
		return err
	}
	w := tw(out)
	fmt.Fprintln(w, "# RMI calls\tplain\twith DGC\tvariation")
	fmt.Fprintln(w, "(paper: 10 calls 1933ms/2072ms +7.19%; 100 12417/14731 +18.64%; 500 58754/70931 +20.73%; 1000 118890/140191 +17.92%)\t\t\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%v\t%+.2f%%\n",
			r.Calls, r.Plain.Round(time.Microsecond), r.WithDGC.Round(time.Microsecond), r.VariationPct)
	}
	return w.Flush()
}

// runSerialization reproduces the §4 snapshot-serialization measurements.
func runSerialization(out io.Writer, quick bool) error {
	objects, reps := 10000, 3
	if quick {
		objects, reps = 2000, 1
	}
	rows, err := experiments.Serialization(objects, reps)
	if err != nil {
		return err
	}
	w := tw(out)
	fmt.Fprintln(w, "codec\tobjects\tstubs\tduration\tbytes")
	fmt.Fprintln(w, "(paper: Rotor 10000 objs 26037ms, +10000 stubs 45125ms (+73%); production .NET ~100x faster, 250-350ms)\t\t\t\t")
	for _, r := range rows {
		stubs := "-"
		if r.WithStubs {
			stubs = fmt.Sprintf("%d", r.Objects)
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%v\t%d\n", r.Codec, r.Objects, stubs, r.Duration.Round(time.Microsecond), r.Bytes)
	}
	return w.Flush()
}

// runScale sweeps detection cost against cycle length (Figure 3 generalized).
func runScale(out io.Writer, quick bool) error {
	sizes := []int{2, 4, 8, 16, 32, 64}
	if quick {
		sizes = []int{2, 4, 8}
	}
	rows, err := experiments.DetectionScale(sizes, 2)
	if err != nil {
		return err
	}
	w := tw(out)
	fmt.Fprintln(w, "processes\tCDMs sent\tprotocol bytes\trounds to empty\twall")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%v\n", r.Procs, r.CDMsSent, r.BytesSent, r.RoundsToEmpty, r.Wall.Round(time.Microsecond))
	}
	return w.Flush()
}

// runLoss sweeps GC-message loss rates.
func runLoss(out io.Writer, quick bool) error {
	rates := []float64{0, 0.1, 0.3, 0.5}
	procs, maxRounds := 4, 400
	if quick {
		rates = []float64{0, 0.3}
		procs, maxRounds = 3, 200
	}
	rows, err := experiments.LossSweep(rates, procs, maxRounds)
	if err != nil {
		return err
	}
	w := tw(out)
	fmt.Fprintln(w, "GC loss rate\trounds to reclaim\tcollected")
	for _, r := range rows {
		fmt.Fprintf(w, "%.0f%%\t%d\t%v\n", r.LossRate*100, r.Rounds, r.Collected)
	}
	return w.Flush()
}

// runLease demonstrates why the paper's collector is "a safe DGC (not a
// lease-based one)": leased reference listing reclaims LIVE objects when a
// holder goes quiet past its lease.
func runLease(out io.Writer, quick bool) error {
	silences := []uint64{1, 2, 4, 8, 16}
	if quick {
		silences = []uint64{1, 8}
	}
	rows, err := experiments.LeaseAblation(silences, 4)
	if err != nil {
		return err
	}
	w := tw(out)
	fmt.Fprintln(w, "silence rounds\tlease=4: live object lost\tref-listing: live object lost\trenewal msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%v\t%d\n", r.SilenceRounds, r.LeaseReclaimed, r.PlainReclaimed, r.LeaseRenewalMsg)
	}
	return w.Flush()
}

// runDisruption measures snapshot pauses per codec against invocation
// latency (§4's "phases critical to applications performance").
func runDisruption(out io.Writer, quick bool) error {
	objects, invokes := 10000, 100
	if quick {
		objects, invokes = 3000, 30
	}
	rows, err := experiments.Disruption(objects, invokes)
	if err != nil {
		return err
	}
	w := tw(out)
	fmt.Fprintln(w, "codec\theap objects\tsnapshot pause\tmean invoke latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\n", r.Codec, r.HeapObjects,
			r.SnapshotPause.Round(time.Microsecond), r.InvokeLatency.Round(time.Microsecond))
	}
	return w.Flush()
}

// runBatch sweeps detection traffic against the candidate count on the
// shared-trunk ring and the web of overlapping cycles.
func runBatch(out io.Writer, quick bool) error {
	cands := []int{16, 64, 256}
	if quick {
		cands = []int{16, 64}
	}
	rows, err := experiments.DetectBatchSweep(cands, 6, 200)
	if err != nil {
		return err
	}
	w := tw(out)
	fmt.Fprintln(w, "workload\tcandidates\tCDM msgs\tbatch CDMs\tsections\tderived\trounds\tcollected")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			r.Workload, r.Candidates, r.CDMMsgs, r.BatchCDMs, r.Sections, r.Derived, r.Rounds, r.Collected)
	}
	return w.Flush()
}

// runRace quantifies Figure 5: mutator races abort detections, never
// producing false positives.
func runRace(out io.Writer, quick bool) error {
	mus := []int{0, 1, 2}
	rounds := 8
	if quick {
		mus = []int{0, 1}
		rounds = 5
	}
	rows, err := experiments.RaceAbortRate(mus, rounds)
	if err != nil {
		return err
	}
	w := tw(out)
	fmt.Fprintln(w, "migrations/round\tdetections\taborted\tcycles found\tfalse positives")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\n", r.MigrationsPerRound, r.Detections, r.Aborted, r.CyclesFound, r.FalsePositives)
	}
	return w.Flush()
}
