package dgc_test

// Benchmark harness: one benchmark (family) per table and figure of the
// paper's evaluation, plus the extended experiments of DESIGN.md. The
// mapping to the paper is:
//
//	BenchmarkTable1RMI            — Table 1 (RMI plain vs DGC-extended)
//	BenchmarkSerialization        — §4 snapshot-serialization prose
//	BenchmarkSummarize            — §3 graph summarization cost
//	BenchmarkFig1Dependency       — Figure 1 scenario
//	BenchmarkFig3CycleLength      — Figure 3 generalized over ring sizes
//	BenchmarkFig4MutualCycles     — Figure 4 scenario
//	BenchmarkFig5RaceAbort        — Figure 5 race handling
//	BenchmarkScaleDetection       — Scale-1 (DCDA vs baselines)
//	BenchmarkLossSweep            — Loss-1
//	BenchmarkAblationDeleteMode   — Abl-1
//	BenchmarkAlgebraMatch/CDMCodec— microbenchmarks of the hot paths
//	BenchmarkDetectRound          — detection rounds on a garbage ring
//	BenchmarkCDMHop               — one CDM hop: clone, derive, match, encode
//
// Absolute times are this machine's; EXPERIMENTS.md records them against
// the paper's and discusses shape agreement.

import (
	"fmt"
	"testing"

	"dgc"
	"dgc/internal/baseline"
	"dgc/internal/core"
	"dgc/internal/experiments"
	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/snapshot"
	"dgc/internal/wire"
	"dgc/internal/workload"
)

// ---- Table 1 ---------------------------------------------------------------

func BenchmarkTable1RMI(b *testing.B) {
	modes := []struct {
		name    string
		disable bool
	}{{"plain", true}, {"withDGC", false}}

	// In-process fabric: isolates the pure CPU cost of the DGC
	// instrumentation per call.
	for _, mode := range modes {
		b.Run("inproc/"+mode.name, func(b *testing.B) {
			w, err := experiments.NewRMIWorkload(10, mode.disable)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Call(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Loopback TCP: the paper's setting ("client and server processes
	// execute in the same machine"), overhead relative to a real remoting
	// round trip.
	for _, mode := range modes {
		b.Run("tcp/"+mode.name, func(b *testing.B) {
			w, err := experiments.NewTCPRMIWorkload(10, mode.disable)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Call(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- serialization -----------------------------------------------------------

func BenchmarkSerialization(b *testing.B) {
	const objects = 10000
	for _, codec := range []snapshot.Codec{snapshot.BinaryCodec{}, snapshot.ReflectCodec{}} {
		for _, withStubs := range []bool{false, true} {
			name := fmt.Sprintf("%s/objs=%d/stubs=%v", codec.Name(), objects, withStubs)
			b.Run(name, func(b *testing.B) {
				h := experiments.BuildSerializationHeap(objects, withStubs)
				b.ReportAllocs()
				b.ResetTimer()
				var size int
				for i := 0; i < b.N; i++ {
					data, err := codec.Encode(h)
					if err != nil {
						b.Fatal(err)
					}
					size = len(data)
				}
				b.ReportMetric(float64(size), "bytes/snapshot")
			})
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	// Summarization cost over the stress graph of
	// experiments.BuildSummarizeHeap: a deep spine plus random edges, with
	// the scion count swept so the per-scion component of the summarizer's
	// complexity is visible. Calls snapshot.Summarize directly (the node
	// layer's unchanged-heap cache would short-circuit repeat calls).
	for _, objects := range []int{1000, 10000, 100000} {
		for _, scions := range []int{4, 64, 512} {
			b.Run(fmt.Sprintf("objs=%d/scions=%d", objects, scions), func(b *testing.B) {
				h, tb := experiments.BuildSummarizeHeap(objects, scions)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sum := snapshot.Summarize(h, tb, uint64(i+1))
					if len(sum.Scions) != tb.NumScions() {
						b.Fatalf("summary has %d scions, want %d", len(sum.Scions), tb.NumScions())
					}
				}
			})
		}
	}
}

func BenchmarkGCRound(b *testing.B) {
	// One full collection round (LGC, summarize, detect on every node) on a
	// live multi-node ring with per-round garbage churn, so every phase does
	// real work each iteration.
	for _, procs := range []int{8, 32} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			cfg := node.Config{}
			c := dgc.NewCluster(1, cfg)
			if _, err := c.Materialize(workload.LiveRing(procs, 2), cfg); err != nil {
				b.Fatal(err)
			}
			// Bulk out each node's heap so collector work, not harness
			// bookkeeping, dominates the round.
			for _, n := range c.Nodes() {
				n.With(func(m dgc.Mutator) {
					var prev dgc.ObjID
					for i := 0; i < 2000; i++ {
						o := m.Alloc(nil)
						if i == 0 {
							if err := m.Root(o); err != nil {
								b.Fatal(err)
							}
						} else if err := m.Link(prev, o); err != nil {
							b.Fatal(err)
						}
						prev = o
					}
				})
			}
			c.GCRound() // warm-up: tables and summaries exist
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Churn: fresh garbage on every node invalidates summaries
				// and gives the LGC something to sweep.
				for _, n := range c.Nodes() {
					n.With(func(m dgc.Mutator) {
						prev := m.Alloc(nil)
						for j := 0; j < 50; j++ {
							o := m.Alloc(nil)
							if err := m.Link(prev, o); err != nil {
								b.Fatal(err)
							}
							prev = o
						}
					})
				}
				c.GCRound()
			}
		})
	}
}

// ---- figures -----------------------------------------------------------------

// collectBench measures full reclamation of a topology (materialize + GC
// rounds to empty) per iteration.
func collectBench(b *testing.B, topo func() *dgc.Topology, maxRounds int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := dgc.Config{}
		c := dgc.NewCluster(1, cfg)
		if _, err := c.Materialize(topo(), cfg); err != nil {
			b.Fatal(err)
		}
		rounds := 0
		for c.TotalObjects() > 0 && rounds < maxRounds {
			c.GCRound()
			rounds++
		}
		if c.TotalObjects() != 0 {
			b.Fatalf("not collected in %d rounds", maxRounds)
		}
	}
}

func BenchmarkFig3SimpleCycle(b *testing.B) {
	collectBench(b, dgc.Figure3, 15)
}

func BenchmarkFig4MutualCycles(b *testing.B) {
	collectBench(b, dgc.Figure4, 15)
}

func BenchmarkFig1Dependency(b *testing.B) {
	// Full Figure 1 lifecycle: blocked while the dependency lives, then
	// collected after it dies.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := dgc.Config{}
		c := dgc.NewCluster(1, cfg)
		refs, err := c.Materialize(dgc.Figure1(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			c.GCRound()
		}
		if c.TotalObjects() != 14 {
			b.Fatalf("dependency did not block: %d objects", c.TotalObjects())
		}
		w := refs["W"]
		c.Node(w.Node).With(func(m dgc.Mutator) { m.Unroot(w.Obj) })
		rounds := 0
		for c.TotalObjects() > 0 && rounds < 15 {
			c.GCRound()
			rounds++
		}
		if c.TotalObjects() != 0 {
			b.Fatal("not collected after dependency death")
		}
	}
}

func BenchmarkFig3CycleLength(b *testing.B) {
	for _, procs := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := dgc.Config{}
				c := dgc.NewCluster(1, cfg)
				if _, err := c.Materialize(dgc.Ring(procs, 2), cfg); err != nil {
					b.Fatal(err)
				}
				rounds := 0
				for c.TotalObjects() > 0 && rounds < procs*3+10 {
					c.GCRound()
					rounds++
				}
				if c.TotalObjects() != 0 {
					b.Fatal("ring not collected")
				}
				if i == 0 {
					var cdms uint64
					for _, s := range c.Stats() {
						cdms += s.Detector.CDMsSent
					}
					b.ReportMetric(float64(cdms), "CDMs/collection")
					b.ReportMetric(float64(rounds), "rounds/collection")
				}
			}
		})
	}
}

func BenchmarkFig5RaceAbort(b *testing.B) {
	// One full Figure 5 race (detection + root migration + abort) per
	// iteration; the experiment asserts zero false positives as it runs.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RaceAbortRate([]int{1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].FalsePositives != 0 || rows[0].CyclesFound != 0 {
			b.Fatalf("race produced false positive: %+v", rows[0])
		}
	}
}

// ---- comparisons & extensions ---------------------------------------------------

func BenchmarkScaleDetection(b *testing.B) {
	topo := func() *workload.Topology { return workload.Ring(8, 2) }
	b.Run("dcda", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := node.Config{}
			c := dgc.NewCluster(1, cfg)
			if _, err := c.Materialize(topo(), cfg); err != nil {
				b.Fatal(err)
			}
			rounds := 0
			for c.TotalObjects() > 0 && rounds < 40 {
				c.GCRound()
				rounds++
			}
			if c.TotalObjects() != 0 {
				b.Fatal("not collected")
			}
		}
	})
	b.Run("hughes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := baseline.Build(topo())
			if err != nil {
				b.Fatal(err)
			}
			h := baseline.NewHughes(w)
			rounds := 0
			for w.TotalObjects() > 0 && rounds < int(h.Lag)*3+50 {
				h.Round()
				rounds++
			}
			if w.TotalObjects() != 0 {
				b.Fatal("not collected")
			}
		}
	})
	b.Run("backtrace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := baseline.Build(topo())
			if err != nil {
				b.Fatal(err)
			}
			bt := baseline.NewBacktracer(w)
			rounds := 0
			for w.TotalObjects() > 0 && rounds < 40 {
				if err := bt.Round(); err != nil {
					b.Fatal(err)
				}
				rounds++
			}
			if w.TotalObjects() != 0 {
				b.Fatal("not collected")
			}
		}
	})
}

func BenchmarkLossSweep(b *testing.B) {
	for _, rate := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("loss=%.0f%%", rate*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.LossSweep([]float64{rate}, 3, 400)
				if err != nil {
					b.Fatal(err)
				}
				if !rows[0].Collected {
					b.Fatal("not collected under loss")
				}
				if i == 0 {
					b.ReportMetric(float64(rows[0].Rounds), "rounds/collection")
				}
			}
		})
	}
}

func BenchmarkAblationDeleteMode(b *testing.B) {
	for _, mode := range []string{"cascade", "broadcast"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.AblationDeleteMode([]int{8})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Mode == mode && i == 0 {
						b.ReportMetric(float64(r.RoundsToEmpty), "rounds/collection")
					}
				}
			}
		})
	}
}

// ---- microbenchmarks ---------------------------------------------------------

func BenchmarkAlgebraMatch(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("refs=%d", n), func(b *testing.B) {
			alg := core.NewAlg()
			for i := 0; i < n; i++ {
				r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
				alg.AddSource(r, uint64(i))
				if i%2 == 0 {
					alg.AddTarget(r, uint64(i))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := alg.Match()
				if m.Abort {
					b.Fatal("unexpected abort")
				}
			}
		})
	}
}

func BenchmarkCDMCodec(b *testing.B) {
	alg := core.NewAlg()
	for i := 0; i < 32; i++ {
		r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
		alg.AddSource(r, uint64(i))
		alg.AddTarget(r, uint64(i))
	}
	msg := wire.NewCDM(core.DetectionID{Origin: "P1", Seq: 9},
		ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 1}}, alg, 7)
	data := wire.Encode(msg)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire.Encode(msg)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(len(data)), "bytes/CDM")
}

func BenchmarkDetectRound(b *testing.B) {
	// The detection rounds that drain a garbage ring: the CDM fan-out and
	// accumulator merging dominate, exercising the dense algebra end to
	// end.
	for _, procs := range []int{8, 32} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := experiments.DetectRoundScale([]int{procs}, 1)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(rows[0].CDMsSent), "CDMs/collection")
				}
			}
		})
	}
}

func BenchmarkCDMHop(b *testing.B) {
	// One CDM hop at a receiving process: clone the accumulated algebra,
	// derive, check for a match, and build + frame the outgoing message —
	// the per-message unit of work detection latency scales with.
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			alg := core.NewAlg()
			for i := 0; i < n; i++ {
				r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
				alg.AddSource(r, uint64(i))
				if i%2 == 0 {
					alg.AddTarget(r, uint64(i))
				}
			}
			det := core.DetectionID{Origin: "P1", Seq: 1}
			along := ids.RefID{Src: "P9", Dst: ids.GlobalRef{Node: "P1", Obj: 1}}
			newSrc := ids.RefID{Src: "P8", Dst: ids.GlobalRef{Node: "P9", Obj: 7}}
			frame := make([]byte, 0, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				derived := alg.Clone()
				derived.AddTarget(along, 3)
				derived.AddSource(newSrc, 4)
				if _, abort := derived.MatchStatus(); abort {
					b.Fatal("unexpected abort")
				}
				msg := wire.NewCDMFromAlg(det, along, derived, 3, core.TraceIDFor(det))
				frame = wire.AppendEncode(frame[:0], msg)
			}
		})
	}
}

func BenchmarkCDMHopInstrumented(b *testing.B) {
	// BenchmarkCDMHop plus the observability work the node layer performs per
	// handled CDM: the counter increments, the hop histogram observation and
	// the inflight-detection map upkeep. The acceptance bar for the metrics
	// layer is this staying within 5% of the uninstrumented hop.
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			alg := core.NewAlg()
			for i := 0; i < n; i++ {
				r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
				alg.AddSource(r, uint64(i))
				if i%2 == 0 {
					alg.AddTarget(r, uint64(i))
				}
			}
			det := core.DetectionID{Origin: "P1", Seq: 1}
			along := ids.RefID{Src: "P9", Dst: ids.GlobalRef{Node: "P1", Obj: 1}}
			newSrc := ids.RefID{Src: "P8", Dst: ids.GlobalRef{Node: "P9", Obj: 7}}
			frame := make([]byte, 0, 4096)
			met := dgc.NewNodeMetrics(dgc.NewMetricsRegistry())
			inflight := map[core.DetectionID]struct{}{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met.CDMsHandled.Inc()
				met.CDMHops.Observe(3)
				if _, ok := inflight[det]; !ok {
					inflight[det] = struct{}{}
				}
				derived := alg.Clone()
				derived.AddTarget(along, 3)
				derived.AddSource(newSrc, 4)
				if _, abort := derived.MatchStatus(); abort {
					b.Fatal("unexpected abort")
				}
				msg := wire.NewCDMFromAlg(det, along, derived, 3, core.TraceIDFor(det))
				frame = wire.AppendEncode(frame[:0], msg)
				met.CDMsSent.Inc()
			}
		})
	}
}

func BenchmarkCDMHopJournaled(b *testing.B) {
	// BenchmarkCDMHopInstrumented plus the event-journal writes the node
	// layer performs per handled CDM: the cdm-handled emission and the
	// cdm-sent emission for the forwarded message, against a journal at the
	// daemons' default capacity with no subscribers (the steady state — the
	// fan-out loop is empty and the cost is seq++, the ring store, and the
	// Sprintf of the detail line). The bar matches PR 4's instrumentation:
	// within noise of the uninstrumented hop.
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			alg := core.NewAlg()
			for i := 0; i < n; i++ {
				r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
				alg.AddSource(r, uint64(i))
				if i%2 == 0 {
					alg.AddTarget(r, uint64(i))
				}
			}
			det := core.DetectionID{Origin: "P1", Seq: 1}
			along := ids.RefID{Src: "P9", Dst: ids.GlobalRef{Node: "P1", Obj: 1}}
			newSrc := ids.RefID{Src: "P8", Dst: ids.GlobalRef{Node: "P9", Obj: 7}}
			frame := make([]byte, 0, 4096)
			met := dgc.NewNodeMetrics(dgc.NewMetricsRegistry())
			inflight := map[core.DetectionID]struct{}{}
			journal := dgc.NewTraceLog(8192)
			tid := core.TraceIDFor(det)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met.CDMsHandled.Inc()
				met.CDMHops.Observe(3)
				if _, ok := inflight[det]; !ok {
					inflight[det] = struct{}{}
				}
				derived := alg.Clone()
				derived.AddTarget(along, 3)
				derived.AddSource(newSrc, 4)
				if _, abort := derived.MatchStatus(); abort {
					b.Fatal("unexpected abort")
				}
				journal.EmitTraced("P1", dgc.TraceKindCDMHandled, tid,
					"det=%s/%d along=%s outcome=forwarded", det.Origin, det.Seq, along)
				msg := wire.NewCDMFromAlg(det, along, derived, 3, tid)
				frame = wire.AppendEncode(frame[:0], msg)
				journal.EmitTraced("P1", dgc.TraceKindCDMSent, tid,
					"det=%s/%d to=%s along=%s hops=%d", det.Origin, det.Seq, along.Dst.Node, along, 3)
				met.CDMsSent.Inc()
			}
		})
	}
}

func BenchmarkLGC(b *testing.B) {
	// Local collection over a 10k-object heap with distributed edges.
	cfg := dgc.Config{}
	c := dgc.NewCluster(1, cfg, "P1", "P2")
	n := c.Node("P1")
	n.With(func(m dgc.Mutator) {
		var prev dgc.ObjID
		for i := 0; i < 10000; i++ {
			o := m.Alloc(nil)
			if i == 0 {
				if err := m.Root(o); err != nil {
					b.Fatal(err)
				}
			} else if err := m.Link(prev, o); err != nil {
				b.Fatal(err)
			}
			prev = o
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RunLGC()
	}
}
