package admin

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dgc/internal/trace"
)

// serveJournal starts node P1 journaling into log behind its admin server.
func serveJournal(t *testing.T, log *trace.Log) *httptest.Server {
	t.Helper()
	var spec NodeSpec
	spec.Config.Trace = log
	_, srv := serveNode(t, spec)
	return srv
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func decodeNDJSON(t *testing.T, body string) []EventJSON {
	t.Helper()
	var out []EventJSON
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var e EventJSON
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

func TestEventsEndpointSinceAndFilters(t *testing.T) {
	log := trace.New(16) // 16 is also the floor New imposes
	for i := 1; i <= 24; i++ {
		kind := trace.KindLGC
		if i%2 == 0 {
			kind = trace.KindCDMSent
		}
		log.EmitTraced("P1", kind, uint64(0xabc), "ev=%d", i)
	}
	srv := serveJournal(t, log)

	// Resume from seq 2: the ring retains 9..24, so events 3..8 were evicted
	// and the stream opens with a truncation marker carrying the exact count.
	resp, err := http.Get(srv.URL + "/api/v1/events?since=2")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if got := resp.Header.Get("Dgc-Journal-Head"); got != "24" {
		t.Errorf("Dgc-Journal-Head = %q, want 24", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	events := decodeNDJSON(t, body)
	if len(events) != 17 {
		t.Fatalf("got %d lines, want marker + 16 events:\n%s", len(events), body)
	}
	if events[0].Kind != "dropped" || events[0].Missed != 6 {
		t.Errorf("first line = %+v, want dropped marker with missed=6", events[0])
	}
	for i, e := range events[1:] {
		if want := uint64(9 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if events[1].Trace != fmt.Sprintf("%016x", 0xabc) {
		t.Errorf("trace id = %q", events[1].Trace)
	}

	// Kind filter keeps only cdm-sent (even seqs among the retained 9..24).
	resp, err = http.Get(srv.URL + "/api/v1/events?kind=cdm-sent")
	if err != nil {
		t.Fatal(err)
	}
	events = decodeNDJSON(t, readAll(t, resp))
	// since=0 with a truncated ring still reports the gap before filtering.
	if len(events) != 9 || events[0].Kind != "dropped" ||
		events[1].Seq != 10 || events[8].Seq != 24 {
		t.Errorf("kind filter got %+v", events)
	}

	// Unknown kind and malformed trace are 400s; scion-created names no kind
	// (nothing emitted one).
	for _, q := range []string{"?kind=wibble", "?kind=scion-created", "?trace=zz", "?since=x", "?timeout=-1s"} {
		resp, err := http.Get(srv.URL + "/api/v1/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestEventsEndpointFollowStreamsLive(t *testing.T) {
	log := trace.New(64)
	log.Emit("P1", trace.KindLGC, "before")
	srv := serveJournal(t, log)

	resp, err := http.Get(srv.URL + "/api/v1/events?follow=true&timeout=5s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	// Backlog first.
	if !sc.Scan() {
		t.Fatal("no backlog line")
	}
	var e EventJSON
	if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Seq != 1 {
		t.Fatalf("backlog line = %s (err %v)", sc.Text(), err)
	}
	// Then live events, in order, exactly once.
	go func() {
		for i := 0; i < 3; i++ {
			log.Emit("P1", trace.KindDetectionEnd, "live")
			time.Sleep(5 * time.Millisecond)
		}
	}()
	for want := uint64(2); want <= 4; want++ {
		if !sc.Scan() {
			t.Fatalf("stream ended before seq %d", want)
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Seq != want {
			t.Fatalf("live seq = %d, want %d (dup or gap)", e.Seq, want)
		}
	}
}

// heldWriter is a follower's connection whose every write waits for the
// test: Write hands its line to lines, then blocks until ack, or fails once
// stop is closed.
type heldWriter struct {
	header http.Header
	lines  chan string
	ack    chan struct{}
	stop   <-chan struct{}
}

func (w *heldWriter) Header() http.Header { return w.header }
func (w *heldWriter) WriteHeader(int)     {}
func (w *heldWriter) Write(p []byte) (int, error) {
	select {
	case w.lines <- string(p):
	case <-w.stop:
		return 0, io.ErrClosedPipe
	}
	select {
	case <-w.ack:
		return len(p), nil
	case <-w.stop:
		return 0, io.ErrClosedPipe
	}
}

// TestEventsFollowerBehindRingGetsMarker: a follower whose writer stalls
// while the ring wraps is not cut off and not replayed a private backlog: on
// release it reads one truncation marker with the exact count the ring
// evicted, then the retained events and later ones, in order.
func TestEventsFollowerBehindRingGetsMarker(t *testing.T) {
	log := trace.New(16)
	log.Emit("P1", trace.KindLGC, "before")
	var spec NodeSpec
	spec.ID = "P1"
	spec.Runtime.Tick = time.Hour
	spec.Config.Trace = log
	sup, err := StartNode(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/api/v1/events?follow=true&timeout=10s", nil).WithContext(ctx)
	w := &heldWriter{header: make(http.Header), lines: make(chan string), ack: make(chan struct{}), stop: ctx.Done()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(sup).Handler().ServeHTTP(w, req)
	}()
	defer func() {
		cancel()
		<-done
	}()
	take := func() string {
		t.Helper()
		select {
		case line := <-w.lines:
			return line
		case <-time.After(5 * time.Second):
			t.Fatal("no line from the follower")
			return ""
		}
	}
	next := func() EventJSON {
		t.Helper()
		line := take()
		w.ack <- struct{}{}
		var e EventJSON
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		return e
	}
	if e := next(); e.Seq != 1 {
		t.Fatalf("backlog line = %+v, want seq 1", e)
	}
	// Event 2's write stalls; meanwhile 40 more wrap the 16-slot ring, which
	// then holds 27..42.
	log.Emit("P1", trace.KindLGC, "stalled")
	take()
	for i := 0; i < 40; i++ {
		log.Emit("P1", trace.KindCDMSent, "n=%d", i)
	}
	w.ack <- struct{}{}
	if e := next(); e.Kind != "dropped" || e.Seq != 0 || e.Missed != 24 {
		t.Fatalf("after the stall: %+v, want one dropped marker with missed=24", e)
	}
	for want := uint64(27); want <= 42; want++ {
		if e := next(); e.Seq != want {
			t.Fatalf("seq %d (%s), want %d", e.Seq, e.Kind, want)
		}
	}
	log.Emit("P1", trace.KindDetectionEnd, "later")
	if e := next(); e.Seq != 43 {
		t.Fatalf("live event after the gap: seq %d, want 43", e.Seq)
	}
}

func TestJournalMetricsAtScrape(t *testing.T) {
	log := trace.New(16)
	for i := 0; i < 20; i++ {
		log.Emit("P1", trace.KindLGC, "ev")
	}
	srv := serveJournal(t, log)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		`dgc_trace_events_emitted{node="P1"} 20`,
		`dgc_trace_events_ring_dropped{node="P1"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestPprofEnabled(t *testing.T) {
	cases := []struct {
		mode, addr string
		want       bool
	}{
		{"on", "0.0.0.0:9090", true},
		{"off", "127.0.0.1:9090", false},
		{"auto", "127.0.0.1:9090", true},
		{"auto", "localhost:9090", true},
		{"auto", ":9090", true},
		{"auto", "[::1]:9090", true},
		{"auto", "0.0.0.0:9090", false},
		{"auto", "10.1.2.3:9090", false},
	}
	for _, c := range cases {
		if got := PprofEnabled(c.mode, c.addr); got != c.want {
			t.Errorf("PprofEnabled(%q, %q) = %v, want %v", c.mode, c.addr, got, c.want)
		}
	}
}

func TestPprofServedWhenEnabled(t *testing.T) {
	sup, err := StartNode(NodeSpec{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	s := NewServer(sup)
	s.EnablePprof()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d, want 200", resp.StatusCode)
	}
}

// The state gauges are current from the moment the node is up, not from its
// first tick: seeding runs through With, which syncs them.
func TestStateGaugesCurrentBeforeFirstTick(t *testing.T) {
	_, srv := serveNode(t, NodeSpec{SeedObjects: 5})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if body, want := readAll(t, resp), `dgc_heap_objects{node="P1"} 5`; !strings.Contains(body, want) {
		t.Errorf("metrics missing %q before the first tick", want)
	}
}
