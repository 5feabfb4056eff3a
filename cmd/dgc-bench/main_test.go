package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentIsAUsageError: an -exp that names no experiment must
// fail loudly, or a renamed experiment would leave CI's smoke run green
// while running nothing.
func TestUnknownExperimentIsAUsageError(t *testing.T) {
	// compare and quiescent ran the deleted baseline collectors.
	for _, name := range []string{"nosuch", "compare", "quiescent"} {
		var out bytes.Buffer
		if code := run([]string{"-exp", name}, &out); code != 2 {
			t.Errorf("-exp %s: exit code %d, want 2", name, code)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s ran something:\n%s", name, out.String())
		}
	}
}

// TestNamedExperimentRunsAlone: a named experiment runs exactly its own
// table. Uses the cheapest one; CI's bench-smoke runs the rest.
func TestNamedExperimentRunsAlone(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-exp", "lease", "-quick"}, &out); code != 0 {
		t.Fatalf("-exp lease -quick: exit code %d", code)
	}
	if got := strings.Count(out.String(), "===="); got != 2 {
		t.Errorf("-exp lease printed %d banner marks, want one banner:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "==== lease ====") {
		t.Errorf("-exp lease did not print its banner:\n%s", out.String())
	}
}
