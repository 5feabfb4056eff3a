package admin

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dgc/internal/node"
)

var update = flag.Bool("update", false, "rewrite golden files")

// serveNode starts node P1 from spec on loopback behind its admin server. The
// tick is an hour, so the node's clock and daemons stay put for the test.
func serveNode(t *testing.T, spec NodeSpec) (*Supervisor, *httptest.Server) {
	t.Helper()
	spec.ID = "P1"
	spec.Runtime.Tick = time.Hour
	sup, err := StartNode(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sup).Handler())
	t.Cleanup(func() {
		srv.Close()
		sup.Stop()
	})
	return sup, srv
}

// getJSON GETs path and returns the status code, decoding a 200 body into out.
func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// postJSON POSTs body to path and returns the status code, decoding the
// reply (a payload or an {"error"} object) into out.
func postJSON(t *testing.T, srv *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestDebugEndpointGolden pins the rendered /debug/dgc JSON — the versioned
// schema consumers scrape. Additions to DebugSnapshot will change this file
// (rerun with -update and review the diff); removals or renames additionally
// require a SchemaVersion bump.
func TestDebugEndpointGolden(t *testing.T) {
	_, srv := serveNode(t, NodeSpec{SeedObjects: 3})
	resp, err := http.Get(srv.URL + "/debug/dgc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "debug_dgc.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/debug/dgc drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	var reply DebugReply
	if err := json.Unmarshal(got, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", reply.SchemaVersion, SchemaVersion)
	}
	if len(reply.Nodes) != 1 || reply.Nodes["P1"].Objects != 3 {
		t.Errorf("nodes = %+v, want P1 alone with 3 objects", reply.Nodes)
	}
}

// TestStatusEndpoint follows one node through fault injection and a kill:
// the status row carries the faults block while a fault is injected, and
// reports the node down, not a panic, once it is killed.
func TestStatusEndpoint(t *testing.T) {
	sup, srv := serveNode(t, NodeSpec{SeedObjects: 3})
	status := func() NodeStatus {
		t.Helper()
		var reply StatusReply
		if code := getJSON(t, srv, "/api/v1/status", &reply); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if reply.SchemaVersion != SchemaVersion {
			t.Errorf("schema_version = %d", reply.SchemaVersion)
		}
		if reply.Build.Version == "" || reply.Build.Go == "" {
			t.Errorf("build info incomplete: %+v", reply.Build)
		}
		if len(reply.Nodes) != 1 {
			t.Fatalf("nodes = %+v, want P1 alone", reply.Nodes)
		}
		return reply.Nodes["P1"]
	}

	p1 := status()
	if p1.Clock != 0 || p1.Objects != 3 || p1.State != "running" || p1.Addr != sup.Addr() {
		t.Errorf("P1 status = %+v", p1)
	}
	if p1.Mailbox == nil || p1.Mailbox.Capacity == 0 || p1.Faults != nil {
		t.Errorf("P1 mailbox = %+v, faults = %+v", p1.Mailbox, p1.Faults)
	}

	if code := postJSON(t, srv, "/api/v1/inject", `{"action":"drop","rate":0.5}`, nil); code != http.StatusOK {
		t.Fatalf("inject drop = %d", code)
	}
	if fs := status().Faults; fs == nil || fs.DropRate != 0.5 {
		t.Errorf("faults after drop = %+v, want drop_rate 0.5", fs)
	}
	if code := postJSON(t, srv, "/api/v1/inject", `{"action":"heal"}`, nil); code != http.StatusOK {
		t.Fatalf("inject heal = %d", code)
	}
	if fs := status().Faults; fs != nil && fs.Active() {
		t.Errorf("faults after heal = %+v, want none active", fs)
	}
	if code := postJSON(t, srv, "/api/v1/inject", `{"action":"frobnicate"}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown action = %d, want 400", code)
	}

	if err := sup.Kill(0); err != nil {
		t.Fatal(err)
	}
	if p1 := status(); p1.State != "down" || p1.Objects != 0 {
		t.Errorf("P1 status after kill = %+v, want down", p1)
	}
}

// TestDownNodeStatusReadsItsRegistry: a killed node's status row reads the
// same registry its /metrics serves, so its counts are the ones it made
// before the kill, not zeros beside a /metrics that still has them.
func TestDownNodeStatusReadsItsRegistry(t *testing.T) {
	sup, srv := serveNode(t, NodeSpec{SeedObjects: 1})
	if err := sup.Runtime().With(func(m node.Mutator) {
		for i := 0; i < 4; i++ {
			m.Alloc(nil)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if res := sup.Runtime().RunLGC(); res.Swept != 4 {
		t.Fatalf("swept %d, want the four unrooted objects", res.Swept)
	}
	if err := sup.Kill(0); err != nil {
		t.Fatal(err)
	}

	var reply StatusReply
	if code := getJSON(t, srv, "/api/v1/status", &reply); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	p1 := reply.Nodes["P1"]
	if p1.State != "down" || p1.ObjectsSwept != 4 {
		t.Errorf("P1 status after kill = %+v, want down with 4 swept", p1)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[k] = v
		}
	}
	for family, got := range map[string]uint64{
		"dgc_lgc_objects_swept_total":  p1.ObjectsSwept,
		"dgc_lgc_runs_total":           p1.LGCRuns,
		"dgc_detections_started_total": p1.Detections.Started,
		"dgc_cycles_found_total":       p1.Detections.CyclesFound,
		"dgc_detections_aborted_total": p1.Detections.Aborted,
		"dgc_cdms_sent_total":          p1.Detections.CDMsSent,
		"dgc_scions_freed_total":       p1.Detections.ScionsFreed,
	} {
		if want := samples[family+`{node="P1"}`]; fmt.Sprint(got) != want {
			t.Errorf("down node: status reads %s = %d, /metrics %q", family, got, want)
		}
	}
}

func TestDetectEndpoint(t *testing.T) {
	sup, srv := serveNode(t, NodeSpec{})

	// GET is rejected.
	if code := getJSON(t, srv, "/api/v1/detect", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET detect = %d, want 405", code)
	}

	// Round mode: a node without scions starts nothing.
	var reply DetectReply
	if code := postJSON(t, srv, "/api/v1/detect", "", &reply); code != http.StatusOK {
		t.Fatalf("round = %d", code)
	}
	if reply.Node != "P1" || reply.Started != 0 || reply.Result != nil {
		t.Errorf("round reply = %+v", reply)
	}

	// Forced-scion mode launches at the parsed candidate, which this node
	// owns; with no such scion the detection ends where it started.
	reply = DetectReply{}
	if code := postJSON(t, srv, "/api/v1/detect?scion=P2-%3E7@P1", "", &reply); code != http.StatusOK {
		t.Fatalf("forced = %d", code)
	}
	if r := reply.Result; r == nil || r.Origin != "P1" || len(r.TraceID) != 16 || reply.Started != 0 {
		t.Errorf("forced reply = %+v (result %+v)", reply, reply.Result)
	}

	// A scion owned by another node is refused, naming the parsed candidate.
	var apiErr struct{ Error string }
	if code := postJSON(t, srv, "/api/v1/detect?scion=P1-%3E7@P2", "", &apiErr); code != http.StatusUnprocessableEntity ||
		!strings.Contains(apiErr.Error, "P1->7@P2") {
		t.Errorf("foreign scion = %d %q, want 422 naming P1->7@P2", code, apiErr.Error)
	}

	// Bad scion syntax.
	if code := postJSON(t, srv, "/api/v1/detect?scion=nonsense", "", nil); code != http.StatusBadRequest {
		t.Errorf("bad scion = %d, want 400", code)
	}

	// A killed node answers a forced detection with an error.
	if err := sup.Kill(0); err != nil {
		t.Fatal(err)
	}
	apiErr.Error = ""
	if code := postJSON(t, srv, "/api/v1/detect?scion=P2-%3E7@P1", "", &apiErr); code != http.StatusUnprocessableEntity ||
		apiErr.Error != ErrNodeDown.Error() {
		t.Errorf("detect on killed node = %d %q, want 422 %q", code, apiErr.Error, ErrNodeDown)
	}
	// So does a full round: a down node starts nothing, and says why.
	apiErr.Error = ""
	if code := postJSON(t, srv, "/api/v1/detect", "", &apiErr); code != http.StatusUnprocessableEntity ||
		apiErr.Error != ErrNodeDown.Error() {
		t.Errorf("detect round on killed node = %d %q, want 422 %q", code, apiErr.Error, ErrNodeDown)
	}
}

// TestNodeSelector: the server runs one node, and a ?node= naming any other
// is a client error on every route.
func TestNodeSelector(t *testing.T) {
	_, srv := serveNode(t, NodeSpec{})
	for path, want := range map[string]int{
		"/api/v1/tables":           http.StatusOK,
		"/api/v1/tables?node=P1":   http.StatusOK,
		"/api/v1/tables?node=nope": http.StatusBadRequest,
		"/api/v1/status?node=P1":   http.StatusOK,
		"/api/v1/status?node=nope": http.StatusBadRequest,
		"/api/v1/events?node=nope": http.StatusBadRequest,
		"/debug/dgc?node=nope":     http.StatusBadRequest,
	} {
		if code := getJSON(t, srv, path, nil); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}
}
