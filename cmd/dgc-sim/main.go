// dgc-sim runs one named scenario on a simulated cluster and prints
// per-round progress: a workbench for watching the collectors operate.
//
// Usage:
//
//	dgc-sim [-scenario figure1|figure3|figure4|ring|acyclic|random]
//	        [-procs N] [-chain N] [-seed N] [-rounds N]
//	        [-loss F] [-dup F] [-reorder F] [-v]
//	        [-metrics-json] [-trace N]
//
// Examples:
//
//	dgc-sim -scenario figure4
//	dgc-sim -scenario ring -procs 16 -chain 3 -loss 0.2
//	dgc-sim -scenario random -seed 7 -procs 6
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"dgc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes one simulation with the given command-line arguments, writing
// the report to out (diagnostics go to stderr) and returning the exit code.
// Everything written to out is a pure function of args, which is what the
// golden test pins.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("dgc-sim", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "figure3", "topology to run")
		procs    = fs.Int("procs", 4, "processes (ring/acyclic/random)")
		chain    = fs.Int("chain", 2, "objects per process (ring)")
		seed     = fs.Int64("seed", 1, "seed (random topology and faults)")
		rounds   = fs.Int("rounds", 0, "max GC rounds (0 = 3*procs+10)")
		loss     = fs.Float64("loss", 0, "GC message loss rate")
		dup      = fs.Float64("dup", 0, "GC message duplication rate")
		reorder  = fs.Float64("reorder", 0, "GC message reorder rate")
		verbose  = fs.Bool("v", false, "print per-node stats at the end")
		traceN   = fs.Int("trace", 0, "print the last N collector events")

		metricsJSON = fs.Bool("metrics-json", false, "dump the full metric set as one JSON object per round")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var topo *dgc.Topology
	switch *scenario {
	case "figure1":
		topo = dgc.Figure1()
	case "figure3":
		topo = dgc.Figure3()
	case "figure4":
		topo = dgc.Figure4()
	case "ring":
		topo = dgc.Ring(*procs, *chain)
	case "acyclic":
		topo = dgc.AcyclicChain(*procs)
	case "random":
		topo = dgc.RandomGraph(*seed, dgc.RandomConfig{
			Procs: *procs, ObjsPerProc: 6, OutDegree: 1.8, RemoteFrac: 0.4, RootFrac: 0.1,
		})
	default:
		fmt.Fprintf(os.Stderr, "dgc-sim: unknown scenario %q\n", *scenario)
		return 2
	}

	cfg := dgc.Config{Metrics: dgc.NewMetricsSet()}
	var events *dgc.TraceLog
	if *traceN > 0 {
		events = dgc.NewTraceLog(*traceN)
		cfg.Trace = events
	}
	c := dgc.NewCluster(*seed, cfg)
	if _, err := c.Materialize(topo, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dgc-sim:", err)
		return 1
	}
	if *loss > 0 || *dup > 0 || *reorder > 0 {
		c.Net.SetFaults(dgc.Faults{
			LossRate: *loss, DupRate: *dup, ReorderRate: *reorder,
			Affects: dgc.GCTraffic(),
		})
	}

	live := c.GlobalLive()
	fmt.Fprintf(out, "scenario %s: %d objects (%d reachable from roots), %d scions, %d stubs\n",
		topo.Name, c.TotalObjects(), len(live), c.TotalScions(), c.TotalStubs())

	maxRounds := *rounds
	if maxRounds == 0 {
		maxRounds = 3*len(topo.Nodes()) + 10
	}
	round := 0
	for round < maxRounds {
		before := c.TotalObjects()
		c.GCRound()
		round++
		fmt.Fprintf(out, "round %2d: objects %d -> %d, scions %d, stubs %d\n",
			round, before, c.TotalObjects(), c.TotalScions(), c.TotalStubs())
		if *metricsJSON {
			blob, err := json.Marshal(cfg.Metrics.Dump())
			if err != nil {
				fmt.Fprintln(os.Stderr, "dgc-sim:", err)
				return 1
			}
			fmt.Fprintf(out, "metrics %s\n", blob)
		}
		if c.TotalObjects() == len(live) && c.TotalObjects() == before && round > 2 {
			break
		}
	}

	if v := c.LiveViolations(live); len(v) != 0 {
		fmt.Fprintf(os.Stderr, "dgc-sim: SAFETY VIOLATION: live objects reclaimed: %v\n", v)
		return 1
	}
	leaked := c.TotalObjects() - len(live)
	fmt.Fprintf(out, "\nfinal: %d objects (%d expected live, %d leaked) after %d rounds\n",
		c.TotalObjects(), len(live), leaked, round)

	if *verbose {
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "node\tswept\tdetections\tcycles\taborted\tCDMs sent\tstub sets")
		for _, n := range c.Nodes() {
			met := n.Metrics()
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
				n.ID(), met.ObjectsSwept.Value(), met.DetectionsStarted.Value(), met.CyclesFound.Value(),
				met.DetectionsAborted.Value(), met.CDMsSent.Value(), met.StubSetsSent.Value())
		}
		w.Flush()
	}
	if events != nil {
		fmt.Fprintln(out, "\ncollector events (most recent last):")
		for _, e := range events.Snapshot() {
			fmt.Fprintln(out, "  "+e.String())
		}
	}
	if leaked > 0 {
		return 1
	}
	return 0
}
