package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenFingerprints pins the simulator's determinism contract
// (PROPERTIES.md §6): the whole report — fabric-driven round counts, per-node
// stats and the event journal — is a pure function of the command line, on
// any GOMAXPROCS. The golden files were re-recorded once, when per-edge
// batching became the only detection path (PROPERTIES.md property D lists
// what stayed identical); a diff here means the simulated schedule changed,
// which needs a deliberate re-baseline (rerun with -update and review the
// diff), never a casual one.
func TestGoldenFingerprints(t *testing.T) {
	scenarios := []struct {
		name string
		args []string
	}{
		{"figure3", []string{"-scenario", "figure3"}},
		{"ring6", []string{"-scenario", "ring", "-procs", "6"}},
		{"random8", []string{"-scenario", "random", "-procs", "8", "-seed", "3"}},
	}
	faults := []string{"-loss", "0.2", "-dup", "0.1", "-reorder", "0.2"}
	for _, sc := range scenarios {
		for _, faulty := range []bool{false, true} {
			name, args := sc.name, append([]string{}, sc.args...)
			if faulty {
				name += "_faulty"
				args = append(args, faults...)
			}
			args = append(args, "-v", "-trace", "200")
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				// Exit code 1 is a run that left garbage behind within the
				// default round budget (random8 does); the "final:" line in the
				// compared output says so. Anything else is a usage error.
				if code := run(args, &out); code > 1 {
					t.Fatalf("dgc-sim %s: exit code %d", strings.Join(args, " "), code)
				}
				golden := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("read golden (run with -update to create): %v", err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("dgc-sim %s: output differs from %s (%d vs %d bytes); first difference at line %d",
						strings.Join(args, " "), golden, out.Len(), len(want), firstDiffLine(out.Bytes(), want))
				}
			})
		}
	}
}

func firstDiffLine(a, b []byte) int {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}
