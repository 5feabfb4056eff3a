package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json, the single catalogue of metric names, units,
// directions and bounds: the program reads it rather than repeat it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchSpec finds BENCHMARK.json in the working directory or its parent
// (go test runs in the package directory) and returns it with the directory
// it was found in.
func loadBenchSpec() (*benchSpec, string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var bs benchSpec
		if err := json.Unmarshal(data, &bs); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bs, dir, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// metricOut is one metric of one run.
type metricOut struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	Kind     string    `json:"kind"` // end_to_end or per_layer
	Segments []float64 `json:"segments,omitempty"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	N        int       `json:"n"` // samples behind the value
}

// segEnv is the noise guard's record of one measured segment.
type segEnv struct {
	StealPct float64 `json:"steal_pct"`
	CalibMS  float64 `json:"calib_ms"`
	CPUPct   float64 `json:"cpu_util_pct"`
	Rerun    bool    `json:"rerun,omitempty"`
	Noisy    bool    `json:"noisy,omitempty"`
}

// stageCheck is the traced pass's decomposition of reclamation latency.
type stageCheck struct {
	Units          int     `json:"units"`
	Joined         int     `json:"joined"` // units whose journal events were all found
	TickWaitMS     float64 `json:"tick_wait_ms_mean"`
	DetectMS       float64 `json:"detect_ms_mean"`
	UnravelMS      float64 `json:"unravel_ms_mean"`
	ReclaimMeanMS  float64 `json:"reclaim_ms_mean"`
	SumOverReclaim float64 `json:"stage_sum_over_reclaim_mean"`
}

// runDoc is the full record of one run of one workload.
type runDoc struct {
	Benchmark      string               `json:"benchmark"`
	Workload       string               `json:"workload"`
	Why            string               `json:"why"`
	Seed           int64                `json:"seed"`
	Trace          int                  `json:"trace"`
	Substrate      substrate            `json:"substrate"`
	SegmentSeconds float64              `json:"segment_seconds"`
	Metrics        map[string]metricOut `json:"metrics"`
	Attempted      int64                `json:"attempted_ops"`
	Failed         int64                `json:"failed_ops"`
	Violations     []string             `json:"safety_violations"`
	DrainClean     bool                 `json:"drain_clean"`
	DrainMS        float64              `json:"drain_ms"`
	Failures       []string             `json:"failures,omitempty"`
	Missing        []string             `json:"missing_metrics,omitempty"`
	Flags          []string             `json:"flags,omitempty"`
	Segments       []segEnv             `json:"segments"`
	Stages         *stageCheck          `json:"stages,omitempty"`
	TraceFile      string               `json:"trace_file,omitempty"`
}

// correct is the contract's verdict on the program's outputs: nothing live
// was reclaimed, all garbage was, and every metric could be computed.
func (d *runDoc) correct() bool {
	return len(d.Violations) == 0 && d.DrainClean && len(d.Missing) == 0
}

// orZero reports a per-layer metric that has no sample on a workload as 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func div(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// e2eSegment computes the end-to-end metrics that have a per-segment value.
func e2eSegment(w window) map[string]float64 {
	rec, inv := w.s.reclaims, w.s.invokes
	units, calls := float64(len(rec)), float64(len(inv))
	msgs := w.delta("dgc_transport_msgs_sent_total")
	bytes := w.delta("dgc_transport_bytes_sent_total")
	return map[string]float64{
		"reclaim_p50_ms":    percentile(rec, 50),
		"reclaim_p90_ms":    percentile(rec, 90),
		"cycles_per_s":      units / w.seconds(),
		"cpu_ms_per_cycle":  div(w.cpuSeconds()*1e3, units),
		"msgs_per_cycle":    div(msgs, units),
		"bytes_per_cycle":   div(bytes, units),
		"invoke_p50_us":     percentile(inv, 50),
		"invoke_ops_s":      calls / w.seconds(),
		"cpu_us_per_invoke": div(w.cpuSeconds()*1e6, calls),
		"bytes_per_invoke":  div(bytes, calls),
	}
}

// countRatios are the metrics reported over the pooled segments and not as the
// median of per-segment values. Reclamations come in batches on the
// collector's ticks (bigheap: 7, 8 or 9 batches of 32 per segment), so a
// segment's count of them is quantised, and a ratio over it with it; host
// noise, which the median is there to shed, does not reach a count.
var countRatios = map[string]bool{"msgs_per_cycle": true, "bytes_per_cycle": true, "bytes_per_invoke": true}

// e2eMetrics reports every metric of the untraced pass — the end-to-end ones
// and the per-layer ones measured the same way — as the median over its
// segments (countRatios: over the segments pooled), with the per-segment
// values kept.
func e2eMetrics(p *pass, bs *benchSpec, doc *runDoc) {
	per := make([]map[string]float64, len(p.segs))
	for i, w := range p.segs {
		per[i] = e2eSegment(w)
	}
	pooled := p.pooled()
	overall := e2eSegment(pooled)
	put := func(def metricDef, kind string) {
		m := metricOut{Unit: def.Unit, Better: def.Better, Bound: def.Bound, Kind: kind}
		reduce := median
		switch def.Name {
		case "setup_s":
			m.Segments, m.N, reduce = p.setups, len(p.setups), midmean
		case "peak_rss_mb":
			m.Segments, m.N = []float64{p.peakMB}, 1
		default:
			if _, ok := per[0][def.Name]; !ok {
				return
			}
			for _, seg := range per {
				m.Segments = append(m.Segments, seg[def.Name])
			}
			m.N = len(pooled.s.reclaims)
			if strings.Contains(def.Name, "invoke") {
				m.N = len(pooled.s.invokes)
			}
			if countRatios[def.Name] {
				reduce = func([]float64) float64 { return overall[def.Name] }
			}
		}
		doc.put(def.Name, m, reduce)
	}
	for _, def := range bs.EndToEnd {
		put(def, "end_to_end")
	}
	for _, def := range bs.PerLayer {
		put(def, "per_layer")
	}
}

// put finalises a metric from its segment values and stores it; a metric
// that is missing or not finite makes the run incorrect rather than silently
// absent.
func (d *runDoc) put(name string, m metricOut, reduce func([]float64) float64) {
	m.Segments = finite(m.Segments) // a segment without a sample has no value, not a value of 0
	m.Value = reduce(m.Segments)
	m.Q1, m.Q3 = quartiles(m.Segments)
	if len(m.Segments) == 0 {
		m.Value, m.Q1, m.Q3 = 0, 0, 0
		d.Missing = append(d.Missing, name)
	}
	d.Metrics[name] = m
}

// stages joins the traced pass's journal timestamps to its reclaimed units
// and splits each reclamation into waiting for a detection to start
// (node.tick_wait), detection (core.detect) and the acyclic unravelling that
// follows the verdict (refs.unravel).
func stages(l *load, w window) stageCheck {
	var tick, det, unr, lat []float64
	for _, u := range l.reclaimed {
		if u.done.Before(w.a.t) || !u.done.Before(w.b.t) {
			continue
		}
		lat = append(lat, ms(u.done.Sub(u.t0)))
		var t1, t2 time.Time
		for _, s := range u.starts {
			if !s.Before(u.t0) {
				t1 = s
				break
			}
		}
		for _, f := range u.founds {
			if !t1.IsZero() && !f.Before(t1) {
				t2 = f
				break
			}
		}
		if t1.IsZero() || t2.IsZero() || t2.After(u.done) {
			continue
		}
		tick = append(tick, ms(t1.Sub(u.t0)))
		det = append(det, ms(t2.Sub(t1)))
		unr = append(unr, ms(u.done.Sub(t2)))
	}
	sc := stageCheck{Units: len(lat), Joined: len(tick),
		TickWaitMS: mean(tick), DetectMS: mean(det), UnravelMS: mean(unr), ReclaimMeanMS: mean(lat)}
	sc.SumOverReclaim = div(sc.TickWaitMS+sc.DetectMS+sc.UnravelMS, sc.ReclaimMeanMS)
	return sc
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// unitCost is the CPU a pass spent per unit of its dominant work: per invoke
// where there are no rings, per reclaimed cycle otherwise.
func unitCost(p *pass) float64 {
	w := p.pooled()
	if p.sp.Slots == 0 {
		return div(w.cpuSeconds(), float64(len(w.s.invokes)))
	}
	return div(w.cpuSeconds(), float64(len(w.s.reclaims)))
}

// layerMetrics computes the per-layer metrics from the traced pass tp, the
// untraced reference pass ref and the DisableDGC control's invoke latencies;
// scale shortens the probes with the workload (smoke test).
func layerMetrics(tp, ref *pass, off []float64, offSeconds float64, scale int, doc *runDoc) (map[string]float64, error) {
	w := tp.whole()
	l := tp.l
	nodes := float64(tp.sp.Nodes)
	secs := w.seconds()
	rec, inv, waits := w.s.reclaims, w.s.invokes, w.s.waits
	units, calls := float64(len(rec)), float64(len(inv))
	spans := func(name string) float64 { return median(l.rec.durationsMS(name, w.a.t, w.b.t)) }
	lgcBusy := w.delta("dgc_lgc_duration_seconds_sum") * 1e3 / secs / nodes
	sumBusy := w.delta("dgc_summarize_duration_seconds_sum") * 1e3 / secs / nodes
	st := stages(l, w)
	if st.Joined > 0 { // otherwise its means are NaN: the stage metrics go missing and the record says so
		doc.Stages = &st
	}
	calibs := make([]float64, len(tp.segs))
	for i, s := range tp.segs {
		calibs[i] = s.calib
	}
	refInv := ref.pooled().s.invokes

	out := map[string]float64{
		"heap.objects": w.b.obs["dgc_heap_objects"] / nodes,

		"lgc.call_ms_p50":   spans("lgc.collect"),
		"lgc.busy_ms_per_s": lgcBusy,
		"lgc.swept_per_run": div(w.delta("dgc_lgc_objects_swept_total"), w.delta("dgc_lgc_runs_total")),

		"snapshot.summarize_call_ms_p50":   spans("snapshot.summarize"),
		"snapshot.summarize_busy_ms_per_s": sumBusy,
		"snapshot.cache_hit_ratio":         div(w.delta("dgc_summary_cache_hits_total"), w.delta("dgc_summarizations_total")),

		"core.detections_per_cycle": div(w.delta("dgc_detections_started_total"), units),
		"core.found_per_cycle":      div(w.delta("dgc_cycles_found_total"), units),
		"core.aborted_per_cycle":    div(w.delta("dgc_detections_aborted_total"), units),
		"core.cdms_per_cycle":       div(w.delta("dgc_cdms_sent_total"), units),
		"core.detect_call_ms_p50":   spans("core.detect"),
		"core.detect_ms_mean":       st.DetectMS,

		"wire.bytes_per_msg": div(w.delta("dgc_transport_bytes_sent_total"), w.delta("dgc_transport_msgs_sent_total")),

		"transport.msgs_per_s":     w.delta("dgc_transport_msgs_sent_total") / secs,
		"transport.bytes_per_s":    w.delta("dgc_transport_bytes_sent_total") / secs,
		"transport.msgs_per_frame": div(w.delta("dgc_transport_msgs_received_total"), w.delta("dgc_transport_frames_received_total")),
		"transport.send_errors":    w.delta("dgc_transport_send_errors_total"),
		"transport.dials":          w.delta("dgc_transport_dials_total"),

		"node.mailbox_rtt_us_p50":  median(tp.idle),
		"node.mailbox_wait_us_p50": percentile(waits, 50),
		"node.mailbox_wait_us_p99": percentile(waits, 99),
		"node.mailbox_dropped":     w.delta("dgc_mailbox_dropped_total"),
		"node.link_rtt_us_p50":     orZero(median(w.s.links)), // rmi links nothing while measured
		"node.invoke_p99_us":       percentile(inv, 99),
		"node.invoke_max_ms":       percentile(inv, 100) / 1e3,
		"node.reclaim_p99_ms":      percentile(rec, 99),
		"node.tick_wait_ms_mean":   st.TickWaitMS,
		"node.gc_duty_pct":         (lgcBusy + sumBusy) / 10,

		"refs.stubsets_per_cycle": div(w.delta("dgc_stub_sets_sent_total"), units),
		"refs.scions_per_invoke":  div(w.delta("dgc_scions_created_total"), calls),
		"refs.unravel_ms_mean":    st.UnravelMS,
		"refs.invoke_off_p50_us":  median(off),
		"refs.invoke_off_ops_s":   float64(len(off)) / offSeconds,
		"refs.invoke_tax_pct":     100 * (div(median(refInv), median(off)) - 1),

		"trace.events_per_cycle": div(float64(w.b.journal-w.a.journal), units),
		"trace.dropped":          float64(l.jmissed) + float64(l.rec.dropped),
		"trace.overhead_pct":     100 * (div(unitCost(tp), unitCost(ref)) - 1),

		"env.steal_pct":     w.steal(),
		"env.calib_ms":      median(calibs),
		"env.cpu_util_pct":  100 * w.cpuSeconds() / secs,
		"env.go_gc_cpu_pct": 100 * div(w.b.gcCPU-w.a.gcCPU, w.cpuSeconds()),
		"env.num_cpu":       float64(runtime.NumCPU()),
		"env.gomaxprocs":    float64(runtime.GOMAXPROCS(0)),
	}
	if err := probeHeap(tp.heap, out); err != nil {
		return nil, err
	}
	if err := probeCDM(tp.sp.ringLen(), 20000/scale, out); err != nil {
		return nil, err
	}
	if err := probeTCP(2000/scale, out); err != nil {
		return nil, err
	}
	return out, nil
}
