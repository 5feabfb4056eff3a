package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later change). Times are nanoseconds
// since the recorder started. Parent is the span that caused this one (0:
// none); Unit is the garbage unit it worked for (0: none), so all spans of one
// reclamation share an identifier.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Unit   int32  `json:"unit,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// maxSpans bounds the in-memory trace; spans beyond it are counted, not kept.
const maxSpans = 400000

// recorder keeps spans in memory until the pass ends. A nil recorder records
// nothing, which is how the end-to-end pass runs with tracing off.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, parent, unit int32) int32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Unit: unit, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int32) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// durationsMS returns the durations of every closed span called name that
// started inside [from, to), in milliseconds.
func (r *recorder) durationsMS(name string, from, to time.Time) []float64 {
	lo, hi := int64(from.Sub(r.t0)), int64(to.Sub(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name == name && s.End > 0 && s.Start >= lo && s.Start < hi {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	TimeUnit string `json:"time_unit"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, TimeUnit: "ns", Dropped: r.dropped, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
