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

// handleEvents serves GET /api/v1/events: the node's journal as NDJSON.
//
//	?since=N      resume after sequence number N (0 = full retained history)
//	?kind=a,b     keep only the named event kinds
//	?trace=HEX    keep only events of one causal trace id
//	?follow=true  long-poll: stream live events until timeout/disconnect
//	?timeout=30s  follow mode's maximum stream duration (default 30s)
//
// The first line after a gap is a truncation marker {"kind":"dropped",
// "missed":N}: the ring evicted N events the stream can never replay. Follow
// mode is the same read in a loop — the events after the last one written,
// then a wait for the next emit — so a reader that falls a whole ring behind
// gets such a marker and the stream goes on from the oldest retained event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	log := s.sup.Journal()
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
	var deadline <-chan time.Time
	if follow {
		timer := time.NewTimer(streamFor)
		defer timer.Stop()
		deadline = timer.C
	}
	for last := since; ; {
		events, missed := log.Since(last)
		if missed > 0 {
			marker := EventJSON{Kind: trace.KindDropped.String(), Missed: missed,
				Detail: fmt.Sprintf("%d events evicted before since=%d", missed, last)}
			if enc.Encode(marker) != nil {
				return
			}
		}
		for _, e := range events {
			last = e.Seq
			if filter.match(e) && enc.Encode(eventToJSON(e)) != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !follow {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-deadline:
			return
		case <-log.Wait(last):
		}
	}
}

// syncJournalMetrics refreshes the node's dgc_trace_* gauges from its
// journal. Called at scrape time, so the journal needs no dependency on the
// metrics package and the series never lag.
func (s *Server) syncJournalMetrics() {
	journal := s.sup.Journal()
	reg := s.sup.Metrics().Node(string(s.sup.ID()))
	reg.Gauge("dgc_trace_events_emitted",
		"Events sequenced into the node's trace journal.").Set(int64(journal.Total()))
	reg.Gauge("dgc_trace_events_ring_dropped",
		"Journal events evicted by the ring bound.").Set(int64(journal.Dropped()))
}
