package cli

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dgc/internal/admin"
	"dgc/internal/membership"
)

var traceIDRe = regexp.MustCompile(`trace ([0-9a-f]{16})`)

// syncBuffer lets the up goroutine and test assertions share a writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

const e2eSpec = `
cluster:
  tick: 25ms
  lgc_every: 2
  snapshot_every: 4
  detect_every: 0     # detections run only when dgcctl forces them
  candidate_age: 0
  demo_ring: garbage
nodes:
  - id: A
  - id: B
  - id: C
`

// TestLiveE2EDgcctl drives a real 3-node TCP cluster end to end purely
// through the dgcctl command surface: up -> status -> forced detection of
// the demo garbage ring -> kill/recover -> graceful stop. The name keeps it in
// CI's live-e2e (-race) net.
func TestLiveE2EDgcctl(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "cluster.yaml")
	epFile := filepath.Join(dir, "endpoints")
	if err := os.WriteFile(specFile, []byte(e2eSpec), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	upOut := &syncBuffer{}
	upDone := make(chan int, 1)
	go func() {
		upDone <- RunContext(ctx, []string{"up", "-f", specFile, "-endpoints-file", epFile}, upOut, upOut)
	}()

	// The cluster is ready when the endpoints file appears and status works.
	ef := []string{"-endpoints-file", epFile}
	waitFor(t, 15*time.Second, "cluster up", func() bool {
		if _, err := os.Stat(epFile); err != nil {
			return false
		}
		var out bytes.Buffer
		return Run(append([]string{"status"}, ef...), &out, io.Discard) == 0 &&
			strings.Count(out.String(), "running") == 3
	})

	// The garbage ring: one anchor per node, kept alive only by scions.
	var status bytes.Buffer
	if code := Run(append([]string{"status"}, ef...), &status, &status); code != 0 {
		t.Fatalf("status: exit %d\n%s", code, status.String())
	}
	if !strings.Contains(status.String(), "A") || !strings.Contains(status.String(), "build ") {
		t.Fatalf("status output:\n%s", status.String())
	}

	var tables bytes.Buffer
	if code := Run(append([]string{"tables", "-node", "B"}, ef...), &tables, &tables); code != 0 {
		t.Fatalf("tables: exit %d\n%s", code, tables.String())
	}
	// Anchors are each node's first allocation, so A's reference into B is
	// deterministically the scion A->1@B.
	if !strings.Contains(tables.String(), "A->1@B") {
		t.Fatalf("tables -node B missing expected scion A->1@B:\n%s", tables.String())
	}

	// Force detection at the known scion until the ring is reclaimed.
	// A single attempt can land mid-churn and abort; the operator loop is
	// "run dgcctl detect again". -follow resolves through the event stream
	// (no counter polling), and every attempt prints its causal trace id.
	sawTrace := false
	waitFor(t, 20*time.Second, "ring reclaimed via dgcctl detect", func() bool {
		var out bytes.Buffer
		Run(append([]string{"detect", "-scion", "A->1@B", "-follow", "-timeout", "5s"}, ef...), &out, &out)
		sawTrace = sawTrace || traceIDRe.MatchString(out.String())
		return clusterObjects(t, epFile) == 0
	})
	if !sawTrace {
		t.Fatal("detect output never printed a trace id")
	}

	// tail replays the retained journal; the cycle-found line names the
	// winning detection's trace id (a racing attempt may have printed its
	// own id above, so the journal is the authority).
	var tail bytes.Buffer
	if code := Run(append([]string{"tail", "-all", "-kind", "cycle-found", "-for", "1s"}, ef...), &tail, &tail); code != 0 {
		t.Fatalf("tail: exit %d\n%s", code, tail.String())
	}
	m := regexp.MustCompile(`cycle-found\s+\[([0-9a-f]{16})\]`).FindStringSubmatch(tail.String())
	if m == nil {
		t.Fatalf("tail shows no cycle-found event:\n%s", tail.String())
	}

	// The winning detection crossed the whole ring: its reconstructed
	// timeline must be a causal span tree spanning all three nodes ending in
	// a terminal event.
	var tl bytes.Buffer
	if code := Run(append(append([]string{"trace", "-wait", "5s"}, ef...), m[1]), &tl, &tl); code != 0 {
		t.Fatalf("trace: exit %d\n%s", code, tl.String())
	}
	for _, want := range []string{"across 3 nodes", "detection-start", "cdm-sent", "cycle-found", "A (", "B (", "C ("} {
		if !strings.Contains(tl.String(), want) {
			t.Fatalf("trace output missing %q:\n%s", want, tl.String())
		}
	}

	// Chaos: kill B with auto-recover, confirm it comes back.
	var inj bytes.Buffer
	if code := Run(append([]string{"inject", "kill", "-node", "B", "-recover", "200ms"}, ef...), &inj, &inj); code != 0 {
		t.Fatalf("inject kill: exit %d\n%s", code, inj.String())
	}
	waitFor(t, 15*time.Second, "B recovered", func() bool {
		var out bytes.Buffer
		if Run(append([]string{"status"}, ef...), &out, io.Discard) != 0 {
			return false
		}
		return strings.Count(out.String(), "running") == 3
	})

	cancel()
	select {
	case code := <-upDone:
		if code != 0 {
			t.Fatalf("up exited %d:\n%s", code, upOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("up did not shut down:\n%s", upOut.String())
	}
	if !strings.Contains(upOut.String(), "cluster stopped") {
		t.Errorf("up output missing graceful stop:\n%s", upOut.String())
	}
}

// clusterObjects sums live objects across the cluster via the admin API.
func clusterObjects(t *testing.T, epFile string) int {
	t.Helper()
	data, err := os.ReadFile(epFile)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := parseEndpointsFile(data)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ep := range eps {
		reply, err := NewClient(ep.Addr).Status()
		if err != nil {
			return -1 // mid-restart; caller retries
		}
		for _, st := range reply.Nodes {
			total += st.Objects
		}
	}
	return total
}

func waitFor(t *testing.T, timeout time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDrainThroughAdminPlane: 'dgcctl drain' reaches a node through
// POST /api/v1/drain, and the node's own directory then shows it leaving. A
// node with membership off refuses, and the command says so in its exit code.
func TestDrainThroughAdminPlane(t *testing.T) {
	serve := func(spec admin.NodeSpec) string {
		t.Helper()
		spec.Runtime.Tick = time.Hour // the drain must not finish behind the test's back
		sup, err := admin.StartNode(spec)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(admin.NewServer(sup).Handler())
		t.Cleanup(func() {
			srv.Close()
			sup.Stop()
		})
		return srv.Listener.Addr().String()
	}
	off := serve(admin.NodeSpec{ID: "Q"})
	var out bytes.Buffer
	if code := Run([]string{"drain", "-e", off, "Q"}, &out, &out); code != 1 {
		t.Fatalf("drain with membership off: exit %d, want 1\n%s", code, out.String())
	}

	spec := admin.NodeSpec{ID: "P"}
	spec.Config.Membership = &membership.Config{GossipEvery: 4, SuspectAfter: 4, DeadAfter: 4, LeaseTicks: 10, DrainLinger: 2}
	ep := serve(spec)
	out.Reset()
	if code := Run([]string{"drain", "-e", ep, "P"}, &out, &out); code != 0 {
		t.Fatalf("drain: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "P: draining") {
		t.Fatalf("drain output:\n%s", out.String())
	}
	out.Reset()
	if code := Run([]string{"members", "-e", ep}, &out, &out); code != 0 {
		t.Fatalf("members: exit %d\n%s", code, out.String())
	}
	if !regexp.MustCompile(`(?m)^P\s+P\s+(draining|dead)\s`).MatchString(out.String()) {
		t.Fatalf("P's directory does not show it leaving:\n%s", out.String())
	}
}

func TestUpRejectsBadSpec(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(specFile, []byte("cluster:\n  wibble: 1\nnodes:\n  - id: A\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := Run([]string{"up", "-f", specFile}, &out, &out); code == 0 {
		t.Fatalf("up accepted a bad spec:\n%s", out.String())
	}
}

func TestEndpointResolution(t *testing.T) {
	// -e list with and without names.
	ef := &endpointFlags{list: "A=1.2.3.4:1, 5.6.7.8:2"}
	eps, err := ef.resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := []Endpoint{{Name: "A", Addr: "1.2.3.4:1"}, {Addr: "5.6.7.8:2"}}
	if len(eps) != 2 || eps[0] != want[0] || eps[1] != want[1] {
		t.Errorf("resolve -e = %+v", eps)
	}

	// Endpoints file.
	dir := t.TempDir()
	file := filepath.Join(dir, "eps")
	if err := os.WriteFile(file, []byte("# comment\nA 127.0.0.1:1\nB 127.0.0.1:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ef = &endpointFlags{file: file}
	eps, err = ef.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[0].Name != "A" || eps[1].Addr != "127.0.0.1:2" {
		t.Errorf("resolve file = %+v", eps)
	}

	// Missing everything fails with guidance.
	ef = &endpointFlags{file: filepath.Join(dir, "nope")}
	if _, err := ef.resolve(); err == nil || !strings.Contains(err.Error(), "dgcctl up") {
		t.Errorf("missing endpoints error = %v", err)
	}
}

func TestUnknownCommand(t *testing.T) {
	var out bytes.Buffer
	if code := Run([]string{"frobnicate"}, &out, &out); code != 2 {
		t.Errorf("unknown command exit = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "Usage") {
		t.Errorf("no usage shown:\n%s", out.String())
	}
}
