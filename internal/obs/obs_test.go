package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dgc_test_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("dgc_test_depth", "help")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dgc_x_total", "help")
	a.Inc()
	b := r.Counter("dgc_x_total", "other help ignored")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	if b.Value() != 1 {
		t.Fatalf("value lost on rebind: %d", b.Value())
	}
	h1 := r.Histogram("dgc_h", "help", []float64{1, 2})
	h2 := r.Histogram("dgc_h", "help", []float64{99}) // bounds ignored on rebind
	if h1 != h2 {
		t.Fatal("re-registration returned a different histogram")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dgc_y", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge over existing counter name did not panic")
		}
	}()
	r.Gauge("dgc_y", "help")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dgc_lat_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 105.65 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var sb strings.Builder
	if err := WriteText(&sb, r); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`dgc_lat_seconds_bucket{le="0.1"} 2`, // cumulative: 0.05 and 0.1
		`dgc_lat_seconds_bucket{le="1"} 3`,
		`dgc_lat_seconds_bucket{le="10"} 4`,
		`dgc_lat_seconds_bucket{le="+Inf"} 5`,
		`dgc_lat_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestWriteTextGroupsFamiliesAcrossRegistries(t *testing.T) {
	r1 := NewRegistry(Label{Key: "node", Value: "P1"})
	r2 := NewRegistry(Label{Key: "node", Value: "P2"})
	r1.Counter("dgc_z_total", "z help").Inc()
	r2.Counter("dgc_z_total", "z help").Add(2)
	var sb strings.Builder
	if err := WriteText(&sb, r1, r2); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if strings.Count(text, "# HELP dgc_z_total") != 1 || strings.Count(text, "# TYPE dgc_z_total") != 1 {
		t.Fatalf("family header not deduplicated:\n%s", text)
	}
	for _, want := range []string{`dgc_z_total{node="P1"} 1`, `dgc_z_total{node="P2"} 2`} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry(Label{Key: "node", Value: `a"b\c`})
	r.Counter("dgc_esc_total", "help").Inc()
	var sb strings.Builder
	if err := WriteText(&sb, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `node="a\"b\\c"`) {
		t.Fatalf("label not escaped: %s", sb.String())
	}
}

func TestDump(t *testing.T) {
	s := NewSet()
	reg := s.Node("P1")
	reg.Counter("dgc_d_total", "help").Add(3)
	reg.Histogram("dgc_d_seconds", "help", []float64{1}).Observe(0.5)
	d := s.Dump()
	if d[`dgc_d_total{node="P1"}`] != 3 {
		t.Fatalf("dump counter: %v", d)
	}
	if d[`dgc_d_seconds_count{node="P1"}`] != 1 || d[`dgc_d_seconds_sum{node="P1"}`] != 0.5 {
		t.Fatalf("dump histogram: %v", d)
	}
}

func TestNilSetNodeIsSafe(t *testing.T) {
	var s *Set
	reg := s.Node("P1")
	reg.Counter("dgc_n_total", "help").Inc() // must not panic
	if s.Registries() != nil {
		t.Fatal("nil set should have no registries")
	}
}

func TestSetNodeIdempotent(t *testing.T) {
	s := NewSet()
	if s.Node("P1") != s.Node("P1") {
		t.Fatal("Node not idempotent")
	}
	if len(s.Registries()) != 1 {
		t.Fatalf("registries = %d", len(s.Registries()))
	}
}

func TestNodeMetricsRegistersAll(t *testing.T) {
	s := NewSet()
	nm := NewNodeMetrics(s.Node("P1"))
	nm.DetectionsStarted.Inc()
	nm.DetectionLatency.Observe(0.01)
	nm.MailboxDepth.Set(3)
	var sb strings.Builder
	if err := s.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	series := 0
	for _, name := range []string{
		"dgc_detections_started_total", "dgc_detections_aborted_total",
		"dgc_cycles_found_total", "dgc_cdms_sent_total", "dgc_cdms_handled_total",
		"dgc_cdms_dropped_total", "dgc_cdms_deduped_total", "dgc_cdms_race_dropped_total",
		"dgc_scions_freed_total", "dgc_detection_latency_seconds", "dgc_cdm_hops",
		"dgc_scions_created_total", "dgc_scions_dropped_total", "dgc_lgc_runs_total",
		"dgc_lgc_objects_swept_total", "dgc_stub_sets_sent_total", "dgc_stub_sets_applied_total",
		"dgc_summarizations_total", "dgc_summary_cache_hits_total",
		"dgc_lgc_duration_seconds", "dgc_summarize_duration_seconds",
		"dgc_invokes_sent_total", "dgc_invokes_handled_total", "dgc_replies_handled_total",
		"dgc_calls_failed_total", "dgc_heap_objects", "dgc_scions", "dgc_stubs",
		"dgc_detections_inflight", "dgc_pending_calls", "dgc_mailbox_depth",
		"dgc_mailbox_capacity", "dgc_mailbox_dropped_total",
	} {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("missing family %s", name)
			continue
		}
		series++
	}
	if series < 15 {
		t.Fatalf("only %d families exposed", series)
	}
	// Rebinding the same registry returns live instruments bound to the same
	// underlying series (the restart path).
	nm2 := NewNodeMetrics(s.Node("P1"))
	if nm2.DetectionsStarted.Value() != 1 {
		t.Fatal("rebind lost counter value")
	}
}

func TestTransportMetricsRegistersAll(t *testing.T) {
	reg := NewRegistry()
	tm := NewTransportMetrics(reg)
	tm.MsgsSent.Inc()
	tm.BytesSent.Add(10)
	var sb strings.Builder
	if err := WriteText(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"dgc_transport_msgs_sent_total", "dgc_transport_bytes_sent_total",
		"dgc_transport_send_errors_total", "dgc_transport_batches_sent_total",
		"dgc_transport_msgs_received_total", "dgc_transport_bytes_received_total",
		"dgc_transport_frames_received_total", "dgc_transport_decode_errors_total",
		"dgc_transport_dials_total", "dgc_transport_dial_failures_total",
		"dgc_transport_conns_dropped_total", "dgc_transport_msgs_dropped_total",
	} {
		if !strings.Contains(sb.String(), "# TYPE "+name+" ") {
			t.Errorf("missing family %s", name)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dgc_cc_total", "help")
	h := r.Histogram("dgc_ch_seconds", "help", DurationBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter = %d, histogram count = %d", c.Value(), h.Count())
	}
}

func TestHTTPHandler(t *testing.T) {
	s := NewSet()
	s.Node("P1").Counter("dgc_http_total", "help").Inc()
	h := NewHTTPHandler(s, func() any { return map[string]int{"objects": 3} })
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), sb.String()
	}

	code, ctype, body := get("/metrics")
	if code != 200 || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics: code=%d type=%q", code, ctype)
	}
	if !strings.Contains(body, `dgc_http_total{node="P1"} 1`) {
		t.Fatalf("metrics body:\n%s", body)
	}

	code, ctype, body = get("/debug/dgc")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("debug: code=%d type=%q", code, ctype)
	}
	if !strings.Contains(body, `"objects": 3`) {
		t.Fatalf("debug body:\n%s", body)
	}
}

func TestHTTPHandlerNoDebug(t *testing.T) {
	srv := httptest.NewServer(NewHTTPHandler(NewSet(), nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/dgc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("debug without provider: code=%d", resp.StatusCode)
	}
}
