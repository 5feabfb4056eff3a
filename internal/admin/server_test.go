package admin

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dgc/internal/ids"
	"dgc/internal/node"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeHandle is a deterministic Handle for API-shape tests.
type fakeHandle struct {
	id    string
	snap  node.DebugSnapshot
	dump  node.TableDump
	stats node.Stats

	forced     []ids.RefID
	forceRes   node.ForceDetectResult
	forceErr   error
	detections int
}

func (f *fakeHandle) ID() ids.NodeID                    { return ids.NodeID(f.id) }
func (f *fakeHandle) Stats() node.Stats                 { return f.stats }
func (f *fakeHandle) DebugSnapshot() node.DebugSnapshot { return f.snap }
func (f *fakeHandle) TableDump() node.TableDump         { return f.dump }
func (f *fakeHandle) RunDetection() int                 { return f.detections }
func (f *fakeHandle) Summarize() error                  { return nil }
func (f *fakeHandle) Save() ([]byte, error)             { return []byte("state-" + f.id), nil }
func (f *fakeHandle) ForceDetect(c ids.RefID) (node.ForceDetectResult, error) {
	f.forced = append(f.forced, c)
	return f.forceRes, f.forceErr
}

func goldenServer() *Server {
	s := NewServer(nil)
	s.AddNode(&fakeHandle{
		id: "P1",
		snap: node.DebugSnapshot{
			Node: "P1", Clock: 42, Objects: 3, Scions: 1, Stubs: 2,
			SummaryVersion: 7,
			Accumulators:   []node.AccumulatorInfo{},
		},
	})
	s.AddNode(&fakeHandle{
		id: "P2",
		snap: node.DebugSnapshot{
			Node: "P2", Clock: 40, Objects: 1, Scions: 2, Stubs: 0,
			Accumulators: []node.AccumulatorInfo{},
			Mailbox:      &node.MailboxStats{Depth: 1, Capacity: 1024, Dropped: 3},
		},
	})
	return s
}

// TestDebugEndpointGolden pins the rendered /debug/dgc JSON — the versioned
// schema consumers scrape. Additions to DebugSnapshot will change this file
// (rerun with -update and review the diff); removals or renames additionally
// require a SchemaVersion bump.
func TestDebugEndpointGolden(t *testing.T) {
	srv := httptest.NewServer(goldenServer().Handler())
	defer srv.Close()
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
	if len(reply.Nodes) != 2 {
		t.Errorf("nodes = %d, want 2", len(reply.Nodes))
	}
}

func TestStatusEndpoint(t *testing.T) {
	s := goldenServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d", reply.SchemaVersion)
	}
	if reply.Build.Version == "" || reply.Build.Go == "" {
		t.Errorf("build info incomplete: %+v", reply.Build)
	}
	p1 := reply.Nodes["P1"]
	if p1.Clock != 42 || p1.Objects != 3 || p1.State != "running" {
		t.Errorf("P1 status = %+v", p1)
	}
	if mb := reply.Nodes["P2"].Mailbox; mb == nil || mb.Dropped != 3 {
		t.Errorf("P2 mailbox = %+v", mb)
	}
}

func TestDetectEndpoint(t *testing.T) {
	fh := &fakeHandle{
		id:         "P1",
		detections: 2,
		forceRes: node.ForceDetectResult{
			Origin: "P1", Seq: 9, TraceID: "0000000000000009", Outcome: "forwarded", Forwarded: 1,
		},
	}
	s := NewServer(nil)
	s.AddNode(fh)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// GET is rejected.
	resp, err := http.Get(srv.URL + "/api/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET detect = %d, want 405", resp.StatusCode)
	}

	// Round mode.
	resp, err = http.Post(srv.URL+"/api/v1/detect", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reply DetectReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reply.Started != 2 || reply.Result != nil {
		t.Errorf("round reply = %+v", reply)
	}

	// Forced-scion mode.
	resp, err = http.Post(srv.URL+"/api/v1/detect?scion=P2-%3E7@P1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reply.Result == nil || reply.Result.TraceID != "0000000000000009" || reply.Started != 1 {
		t.Errorf("forced reply = %+v", reply)
	}
	want := ids.RefID{Src: "P2", Dst: ids.GlobalRef{Node: "P1", Obj: 7}}
	if len(fh.forced) != 1 || fh.forced[0] != want {
		t.Errorf("forced candidates = %v, want %v", fh.forced, want)
	}

	// Bad scion syntax.
	resp, err = http.Post(srv.URL+"/api/v1/detect?scion=nonsense", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scion = %d, want 400", resp.StatusCode)
	}
}

func TestCapabilityGating(t *testing.T) {
	// A bare Handle (no Killer/FaultController/Restorer) must refuse inject
	// and restore with 501, not crash.
	s := NewServer(nil)
	s.AddNode(&fakeHandle{id: "P1"})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/v1/inject", "application/json",
		strings.NewReader(`{"action":"kill"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("inject kill on bare handle = %d, want 501", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/api/v1/restore", "", strings.NewReader("AAAA"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("restore on bare handle = %d, want 501", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/api/v1/inject", "application/json",
		strings.NewReader(`{"action":"frobnicate"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown action = %d, want 400", resp.StatusCode)
	}
}

func TestNodeSelector(t *testing.T) {
	s := goldenServer() // two nodes: selector is mandatory
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tables without ?node= on 2-node server = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/api/v1/tables?node=P2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tables?node=P2 = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/api/v1/tables?node=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tables?node=nope = %d, want 400", resp.StatusCode)
	}
}

func TestParseRefID(t *testing.T) {
	ref := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 3}}
	got, err := ParseRefID(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("round trip: got %v, want %v", got, ref)
	}
	for _, bad := range []string{"", "P1", "P1->", "P1->x@P2", "P1->3", "->3@P2", "P1->3@"} {
		if _, err := ParseRefID(bad); err == nil {
			t.Errorf("ParseRefID(%q) accepted", bad)
		}
	}
}
