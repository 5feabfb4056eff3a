package dgc_test

// Benchmark harness: one benchmark (family) per table and figure of the
// paper's evaluation, plus the extended experiments of DESIGN.md. The
// mapping to the paper is:
//
//	BenchmarkTable1RMI            — Table 1 (RMI plain vs DGC-extended)
//	BenchmarkSerialization        — §4 snapshot-serialization prose
//	BenchmarkSummarize            — §3 graph summarization cost
//	BenchmarkFig1Dependency       — Figure 1 scenario
//	BenchmarkFig4MutualCycles     — Figure 4 scenario
//	BenchmarkFig5RaceAbort        — Figure 5 race handling
//	BenchmarkLossSweep            — Loss-1
//	BenchmarkAlgebraMatch/CDMCodec— microbenchmarks of the hot paths
//	BenchmarkBatchCDMCodec        — the batched detection message's codec
//	BenchmarkDetectRound          — Figure 3 generalized over ring sizes
//	BenchmarkCDMHop               — one CDM hop: clone, derive, match, encode
//
// Absolute times are this machine's; EXPERIMENTS.md records them against
// the paper's and discusses shape agreement.

import (
	"errors"
	"fmt"
	"testing"

	"dgc"
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
	// The in-process fabric isolates the pure CPU cost of the DGC
	// instrumentation per call; loopback TCP is the paper's setting
	// ("client and server processes execute in the same machine").
	//
	// Every call links 10 fresh objects under a rooted holder that is never
	// collected, so a workload's heap and tables grow with each call. The
	// workload is rebuilt, timer stopped, every callsPerWorkload calls, so
	// b.N does not change what one call costs.
	const callsPerWorkload = 1000
	modes := []struct {
		name    string
		disable bool
	}{{"plain", true}, {"withDGC", false}}
	for _, fabric := range []experiments.Fabric{experiments.InProc, experiments.TCP} {
		for _, mode := range modes {
			b.Run(string(fabric)+"/"+mode.name, func(b *testing.B) {
				var w *experiments.RMIWorkload
				fresh := func() {
					if w != nil {
						w.Close()
					}
					var err error
					if w, err = experiments.NewRMIWorkload(fabric, 10, mode.disable); err != nil {
						b.Fatal(err)
					}
					if err := w.Call(); err != nil { // warm-up: dials the sockets
						b.Fatal(err)
					}
				}
				fresh()
				defer func() { w.Close() }()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%callsPerWorkload == 0 {
						b.StopTimer()
						fresh()
						b.StartTimer()
					}
					if err := w.Call(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
	// complexity is visible. Calls snapshot.Summarize directly, without the
	// node layer's snapshot encode.
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

// ---- extensions ---------------------------------------------------------------

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
	det := core.DetectionID{Origin: "P1", Seq: 9}
	msg := wire.NewCDMFromAlg(det, ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 1}},
		alg, 7, 0)
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
	// The receiver's whole job, comparable across codec layouts whichever
	// step builds the algebra.
	b.Run("decode+merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := wire.Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			m.(*wire.CDM).MergeAlgInto(core.NewAlg())
		}
	})
	b.ReportMetric(float64(len(data)), "bytes/CDM")
}

// batchCodecShapes returns the two BatchCDM shapes of BenchmarkBatchCDMCodec:
// 32 disjoint 3-entry sections (a ring workload's hop framed per
// destination node: no section shares a reference) and 8 sections sharing a
// 9-entry trunk (a shared-trunk hop, one along for all).
func batchCodecShapes() map[string][]wire.BatchSection {
	ref := func(src, dst ids.NodeID, obj int) ids.RefID {
		return ids.RefID{Src: src, Dst: ids.GlobalRef{Node: dst, Obj: ids.ObjID(obj)}}
	}
	section := func(seq int, along ids.RefID, a core.Alg) wire.BatchSection {
		return wire.NewBatchSection(core.DetectionID{Origin: "P1", Seq: uint64(seq)}, along, a)
	}
	disjoint := make([]wire.BatchSection, 32)
	for i := range disjoint {
		a := core.NewAlg()
		a.AddSource(ref("P3", "P1", i), 1)
		a.AddTarget(ref("P1", "P2", i), 1)
		a.AddSource(ref("P2", "P3", i), 1)
		disjoint[i] = section(i+1, ref("P1", "P2", i), a)
	}
	shared := make([]wire.BatchSection, 8)
	for i := range shared {
		a := core.NewAlg()
		for t := 0; t < 4; t++ {
			a.AddTarget(ref("P1", "P2", t), 1)
			a.AddSource(ref("P2", "P3", t), 1)
		}
		a.AddSource(ref("P4", "P1", 100+i), 1)
		shared[i] = section(i+1, ref("P1", "P2", 0), a)
	}
	return map[string][]wire.BatchSection{"disjoint32x3": disjoint, "sharedtrunk8": shared}
}

// BenchmarkBatchCDMCodec times the BatchCDM codec on both shapes: "send" is
// what a TCP send of a fresh message costs (build it, size it for frame
// chunking, encode it into a reused buffer), "decode" the receiver's parse.
func BenchmarkBatchCDMCodec(b *testing.B) {
	shapes := batchCodecShapes()
	for _, name := range []string{"disjoint32x3", "sharedtrunk8"} {
		secs := shapes[name]
		data := wire.Encode(wire.NewBatchCDM(3, false, secs))
		b.Run(name+"/send", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 4096)
			for i := 0; i < b.N; i++ {
				m := wire.NewBatchCDM(3, false, secs)
				_ = wire.EncodedSize(m)
				buf = wire.AppendEncode(buf[:0], m)
			}
			b.ReportMetric(float64(len(data)), "bytes/msg")
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDetectRound(b *testing.B) {
	// The detection rounds that drain a garbage ring (Figure 3 generalized,
	// the collection dgc-bench -exp scale reports): the CDM fan-out and
	// accumulator merging dominate, exercising the dense algebra end to
	// end.
	for _, procs := range []int{8, 32} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := experiments.DetectionScale([]int{procs}, 2)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(rows[0].CDMsSent), "CDMs/collection")
					b.ReportMetric(float64(rows[0].RoundsToEmpty), "rounds/collection")
				}
			}
		})
	}
}

// newCDMHop returns one CDM hop at a receiving process over an accumulated
// algebra of n entries: clone the algebra, derive, check for a match, and
// build + frame the outgoing message — the per-message unit of work
// detection latency scales with. The returned function reports an
// unexpected abort.
func newCDMHop(n int) func() error {
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
	return func() error {
		derived := alg.Clone()
		derived.AddTarget(along, 3)
		derived.AddSource(newSrc, 4)
		if _, abort := derived.MatchStatus(); abort {
			return errors.New("unexpected abort")
		}
		msg := wire.NewCDMFromAlg(det, along, derived, 3, 0)
		frame = wire.AppendEncode(frame[:0], msg)
		return nil
	}
}

// cdmHopEntries are the algebra sizes the hop benchmarks and
// TestCDMHopAllocsPinned run.
var cdmHopEntries = []int{16, 64, 256}

func BenchmarkCDMHop(b *testing.B) {
	for _, n := range cdmHopEntries {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			hop := newCDMHop(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := hop(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCDMHopInstrumented(b *testing.B) {
	// BenchmarkCDMHop plus the observability work the node layer performs per
	// handled CDM: the counter increments, the hop histogram observation and
	// the inflight-detection map upkeep. The acceptance bar for the metrics
	// layer is this staying within 5% of the uninstrumented hop.
	det := core.DetectionID{Origin: "P1", Seq: 1}
	for _, n := range cdmHopEntries {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			hop := newCDMHop(n)
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
				if err := hop(); err != nil {
					b.Fatal(err)
				}
				met.CDMsSent.Inc()
			}
		})
	}
}

func BenchmarkCDMHopJournaled(b *testing.B) {
	// BenchmarkCDMHopInstrumented plus the event-journal writes the node
	// layer performs per handled CDM: the cdm-handled emission and the
	// cdm-sent emission for the forwarded message, each deriving the
	// detection's trace id, against a journal at the daemons' default
	// capacity with no follower waiting (the steady state: the cost is the
	// id's hash, seq++, packing the arguments into a record, the ring store
	// and a nil check on the wake channel). The bar matches the
	// instrumented hop's: within noise of the uninstrumented hop.
	det := core.DetectionID{Origin: "P1", Seq: 1}
	along := ids.RefID{Src: "P9", Dst: ids.GlobalRef{Node: "P1", Obj: 1}}
	for _, n := range cdmHopEntries {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			hop := newCDMHop(n)
			met := dgc.NewNodeMetrics(dgc.NewMetricsRegistry())
			inflight := map[core.DetectionID]struct{}{}
			journal := dgc.NewTraceLog(8192)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met.CDMsHandled.Inc()
				met.CDMHops.Observe(3)
				if _, ok := inflight[det]; !ok {
					inflight[det] = struct{}{}
				}
				journal.EmitTraced("P1", dgc.TraceKindCDMHandled, core.TraceIDFor(det),
					"det=%s/%d along=%s outcome=forwarded", det.Origin, det.Seq, along)
				if err := hop(); err != nil {
					b.Fatal(err)
				}
				journal.EmitTraced("P1", dgc.TraceKindCDMSent, core.TraceIDFor(det),
					"det=%s/%d to=%s along=%s hops=%d", det.Origin, det.Seq, along.Dst.Node, along, 3)
				met.CDMsSent.Inc()
			}
		})
	}
}

// newLGCNode returns node P1 of a two-node cluster holding a rooted chain
// of 10k objects: BenchmarkLGC's and TestLGCAllocsPinned's heap.
func newLGCNode(tb testing.TB) *dgc.Node {
	c := dgc.NewCluster(1, dgc.Config{}, "P1", "P2")
	n := c.Node("P1")
	n.With(func(m dgc.Mutator) {
		var prev dgc.ObjID
		for i := 0; i < 10000; i++ {
			o := m.Alloc(nil)
			if i == 0 {
				if err := m.Root(o); err != nil {
					tb.Fatal(err)
				}
			} else if err := m.Link(prev, o); err != nil {
				tb.Fatal(err)
			}
			prev = o
		}
	})
	return n
}

func BenchmarkLGC(b *testing.B) {
	// Local collection over a rooted 10k-object chain.
	n := newLGCNode(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RunLGC()
	}
}
