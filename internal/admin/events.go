package admin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dgc/internal/trace"
)

// Journaler is the optional capability of handles that expose the node's
// event journal. Both drivers and *Supervisor implement it; a nil Journal
// means tracing is not configured on that node.
type Journaler interface {
	Journal() *trace.Log
}

// EventJSON is one /api/v1/events NDJSON line: a journal event, or a
// truncation marker (kind "dropped", seq 0) telling a resuming consumer how
// many events the ring evicted before its ?since= position.
type EventJSON struct {
	Node   string `json:"node"`
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Trace  string `json:"trace,omitempty"` // %016x causal trace id, omitted when 0
	TS     string `json:"ts,omitempty"`    // RFC3339Nano wall-clock stamp
	Detail string `json:"detail"`
	// Missed is set on truncation markers: events evicted before the resume
	// point that this stream can never replay.
	Missed uint64 `json:"missed,omitempty"`
}

func eventToJSON(e trace.Event) EventJSON {
	out := EventJSON{
		Node:   string(e.Node),
		Seq:    e.Seq,
		Kind:   e.Kind.String(),
		Detail: e.Detail,
	}
	if e.Trace != 0 {
		out.Trace = fmt.Sprintf("%016x", e.Trace)
	}
	if !e.At.IsZero() {
		out.TS = e.At.Format(time.RFC3339Nano)
	}
	return out
}

// eventFilter is the parsed ?kind= / ?trace= selection.
type eventFilter struct {
	kinds   map[trace.Kind]bool // nil = all kinds
	traceID uint64              // 0 = all traces
}

func (f eventFilter) match(e trace.Event) bool {
	if f.kinds != nil && !f.kinds[e.Kind] {
		return false
	}
	if f.traceID != 0 && e.Trace != f.traceID {
		return false
	}
	return true
}

func parseEventFilter(r *http.Request) (eventFilter, error) {
	var f eventFilter
	if kinds := r.URL.Query().Get("kind"); kinds != "" {
		f.kinds = make(map[trace.Kind]bool)
		for _, name := range strings.Split(kinds, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			k, ok := trace.ParseKind(name)
			if !ok {
				return f, fmt.Errorf("unknown event kind %q", name)
			}
			f.kinds[k] = true
		}
	}
	if tid := r.URL.Query().Get("trace"); tid != "" {
		v, err := strconv.ParseUint(tid, 16, 64)
		if err != nil {
			return f, fmt.Errorf("bad trace id %q: want hex", tid)
		}
		f.traceID = v
	}
	return f, nil
}

// pickJournal resolves the journal to stream: the ?node= handle when given,
// otherwise the first hosted node exposing a journal (a multi-node server
// like dgc-sim shares one journal across its nodes, so any exposes the full
// cluster view).
func (s *Server) pickJournal(r *http.Request) (*trace.Log, error) {
	if want := r.URL.Query().Get("node"); want != "" {
		h, err := s.pick(r)
		if err != nil {
			return nil, err
		}
		j, ok := h.(Journaler)
		if !ok || j.Journal() == nil {
			return nil, fmt.Errorf("node %q has no event journal", want)
		}
		return j.Journal(), nil
	}
	for _, h := range s.handles() {
		if j, ok := h.(Journaler); ok && j.Journal() != nil {
			return j.Journal(), nil
		}
	}
	return nil, fmt.Errorf("no hosted node has an event journal")
}

// handleEvents serves GET /api/v1/events: the node's journal as NDJSON.
//
//	?since=N      resume after sequence number N (0 = full retained history)
//	?kind=a,b     keep only the named event kinds
//	?trace=HEX    keep only events of one causal trace id
//	?follow=true  long-poll: stream live events until timeout/disconnect
//	?timeout=30s  follow mode's maximum stream duration (default 30s)
//
// The first line after a gap is a truncation marker {"kind":"dropped",
// "missed":N}: the ring evicted N events the stream can never replay. In
// follow mode a slow reader is evicted server-side; the stream ends with a
// second marker and the client resumes with ?since=<last seq it saw>.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	log, err := s.pickJournal(r)
	if err != nil {
		writeErr(w, http.StatusNotImplemented, err)
		return
	}
	filter, err := parseEventFilter(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		since, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad since %q: %w", v, err))
			return
		}
	}
	follow := r.URL.Query().Get("follow") == "true"
	streamFor := 30 * time.Second
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q", v))
			return
		}
		if d > 10*time.Minute {
			d = 10 * time.Minute
		}
		streamFor = d
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	// The journal head at request time, so clients can baseline a follow
	// ("everything after now") without replaying the retained history.
	w.Header().Set("Dgc-Journal-Head", strconv.FormatUint(log.Total(), 10))
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeEvent := func(e EventJSON) bool { return enc.Encode(e) == nil }

	// Subscribe BEFORE reading the backlog so no event can fall between
	// history and the live stream; the overlap is deduplicated by sequence
	// number below.
	var sub *trace.Subscription
	if follow {
		sub = log.Subscribe(1024)
		defer sub.Close()
	}

	backlog, missed := log.Since(since)
	if missed > 0 {
		writeEvent(EventJSON{Kind: trace.KindDropped.String(), Missed: missed,
			Detail: fmt.Sprintf("%d events evicted before since=%d", missed, since)})
	}
	last := since
	for _, e := range backlog {
		if e.Seq > last {
			last = e.Seq
		}
		if filter.match(e) {
			if !writeEvent(eventToJSON(e)) {
				return
			}
		}
	}
	flush()
	if !follow {
		return
	}

	deadline := time.NewTimer(streamFor)
	defer deadline.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-deadline.C:
			return
		case e, ok := <-sub.Events():
			if !ok {
				// Evicted for falling behind: tell the client where to
				// resume and end the stream.
				writeEvent(EventJSON{Kind: trace.KindDropped.String(),
					Detail: fmt.Sprintf("stream evicted (slow reader); resume with ?since=%d", last)})
				flush()
				return
			}
			if e.Seq <= last {
				continue // overlap with the backlog read
			}
			last = e.Seq
			if filter.match(e) {
				if !writeEvent(eventToJSON(e)) {
					return
				}
				flush()
			}
		}
	}
}

// syncJournalMetrics refreshes the per-node dgc_trace_* gauges from each
// hosted journal. Called at scrape time, so the journal needs no dependency
// on the metrics package and the series never lag.
func (s *Server) syncJournalMetrics() {
	for _, h := range s.handles() {
		j, ok := h.(Journaler)
		if !ok || j.Journal() == nil {
			continue
		}
		journal := j.Journal()
		reg := s.set.Node(string(h.ID()))
		reg.Gauge("dgc_trace_events_emitted",
			"Events sequenced into the node's trace journal.").Set(int64(journal.Total()))
		reg.Gauge("dgc_trace_events_ring_dropped",
			"Journal events evicted by the ring bound.").Set(int64(journal.Dropped()))
	}
}
