package admin

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMetricsCatalogue keeps METRICS.md equal to what a node serves: it
// starts one supervised node behind an admin server — the assembly
// cmd/dgc-node and dgcctl up use — scrapes /metrics, and renders every
// family's name, type and help text. A family registered without a
// catalogue row, or a row whose family is gone, fails here; rerun with
// -update to rewrite the file.
func TestMetricsCatalogue(t *testing.T) {
	sup, err := StartNode(NodeSpec{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	srv := NewServer(sup)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}

	// The exposition writes each family's HELP line, then its TYPE line.
	help := map[string]string{}
	byName := map[string]string{} // family -> catalogue row
	var names []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), " ", 4)
		if len(f) != 4 || f[0] != "#" {
			continue
		}
		switch f[1] {
		case "HELP":
			help[f[2]] = f[3]
		case "TYPE":
			names = append(names, f[2])
			byName[f[2]] = fmt.Sprintf("| `%s` | %s | %s |", f[2], f[3], help[f[2]])
		}
	}
	sort.Strings(names)
	rows := make([]string, len(names))
	for i, n := range names {
		rows[i] = byName[n]
	}
	doc := "# Metrics catalogue\n\n" +
		"Every metric family a node serves at `/metrics` (per-node series carry a\n" +
		"`node=\"<id>\"` label). Generated from the live registries by\n" +
		"`go test ./internal/admin -run TestMetricsCatalogue -update`; the same test\n" +
		"fails when this file and the registries disagree.\n\n" +
		"| family | type | help |\n|---|---|---|\n" +
		strings.Join(rows, "\n") + "\n"

	path := filepath.Join("..", "..", "METRICS.md")
	if *update {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(have) == doc {
		return
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(have), "\n") {
		documented[line] = true
	}
	for _, row := range rows {
		if !documented[row] {
			t.Errorf("registered but not in METRICS.md: %s", row)
		}
		delete(documented, row)
	}
	for line := range documented {
		if strings.HasPrefix(line, "| `") {
			t.Errorf("in METRICS.md but not registered: %s", line)
		}
	}
	t.Error("METRICS.md is out of date; rerun with -update")
}
