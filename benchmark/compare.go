package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// readRuns reads a result file: one or more concatenated run documents, as
// runs.json accumulates them.
func readRuns(path string) ([]runDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []runDoc
	dec := json.NewDecoder(f)
	for {
		var d runDoc
		if err := dec.Decode(&d); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return docs, nil
}

// side is one file's values of one (workload, metric): one value per run
// when the file holds several runs of the workload, the run's own segment
// values when it holds one.
type side struct {
	values []float64
	unit   string
	kind   string
}

// collect gathers a file's sides. A metric is taken from the runs that
// measure it in full and from one trace mode only: an end-to-end metric from
// --trace 0 runs (a --trace 1 run has it from two reference segments and one
// set-up); a per-layer metric from --trace 0 runs if they have it (the six
// measured like end-to-end ones), else from --trace 1 runs.
func collect(docs []runDoc) map[[2]string]*side {
	type key struct {
		workload, metric string
		traced           bool
	}
	found := map[key][]metricOut{}
	for _, d := range docs {
		for name, m := range d.Metrics {
			if m.Kind == "end_to_end" && d.Trace != 0 {
				continue
			}
			k := key{d.Workload, name, d.Trace != 0}
			found[k] = append(found[k], m)
		}
	}
	out := map[[2]string]*side{}
	for k, ms := range found {
		if k.traced && len(found[key{k.workload, k.metric, false}]) > 0 {
			continue
		}
		s := &side{unit: ms[0].Unit, kind: ms[0].Kind}
		for _, m := range ms {
			if len(ms) > 1 || len(m.Segments) == 0 {
				s.values = append(s.values, m.Value)
			} else {
				s.values = m.Segments
			}
		}
		out[[2]string{k.workload, k.metric}] = s
	}
	return out
}

// compareFiles prints, per (workload, metric), both sides' medians and
// quartiles, the ratio b/a, the bound from BENCHMARK.json and a verdict:
// ok, regressed (b worse than a by more than the bound) or unresolved (a
// side's own spread is wider than the bound). Per-layer metrics have no bound
// and are listed for information. It returns the exit status: 0 all ok,
// 1 something regressed, 2 nothing regressed but something is unresolved.
func compareFiles(w io.Writer, bs *benchSpec, pathA, pathB string) (int, error) {
	docsA, err := readRuns(pathA)
	if err != nil {
		return 0, err
	}
	docsB, err := readRuns(pathB)
	if err != nil {
		return 0, err
	}
	defs := map[string]metricDef{}
	for _, d := range bs.EndToEnd {
		defs[d.Name] = d
	}
	a, b := collect(docsA), collect(docsB)
	keys := make([][2]string, 0, len(a))
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki[0] != kj[0] {
			return ki[0] < kj[0]
		}
		if a[ki].kind != a[kj].kind {
			return a[ki].kind < a[kj].kind
		}
		return ki[1] < kj[1]
	})

	status := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1,q3]\tb median [q1,q3]\tb/a (base a)\tbound\tverdict")
	for _, k := range keys {
		sa, sb := a[k], b[k]
		ma, mb := median(finite(sa.values)), median(finite(sb.values))
		a1, a3 := quartiles(sa.values)
		b1, b3 := quartiles(sb.values)
		def, bounded := defs[k[1]]
		verdict, bound := "info", "-"
		if bounded {
			bound = fmt.Sprintf("%.0f%%", 100*def.Bound)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = (ma - mb) / ma
			}
			spread := math.Max((a3-a1)/math.Abs(ma), (b3-b1)/math.Abs(mb))
			switch {
			case spread > def.Bound || math.IsNaN(worse):
				verdict = "unresolved"
				if status == 0 {
					status = 2
				}
			case worse > def.Bound:
				verdict = "regressed"
				status = 1
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g,%.5g]\t%.5g [%.5g,%.5g]\t%.4f\t%s\t%s\n",
			k[0], k[1], sa.unit, ma, a1, a3, mb, b1, b3, mb/ma, bound, verdict)
	}
	return status, tw.Flush()
}
