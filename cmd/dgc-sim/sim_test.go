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
// any GOMAXPROCS. PROPERTIES.md property D lists every re-recording and
// what moved; a diff here means the simulated schedule changed, which needs
// a deliberate re-baseline (rerun with -update and review the diff), never a
// casual one.
func TestGoldenFingerprints(t *testing.T) {
	// code is the exit code, clean and faulty alike: 1 is a run that left
	// garbage behind within the default round budget, which random8 does
	// (ROADMAP item 8(iii)); the "final:" line in the compared output says so.
	scenarios := []struct {
		name string
		args []string
		code int
	}{
		{"figure3", []string{"-scenario", "figure3"}, 0},
		{"ring6", []string{"-scenario", "ring", "-procs", "6"}, 0},
		{"random8", []string{"-scenario", "random", "-procs", "8", "-seed", "3"}, 1},
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
				if code := run(args, &out); code != sc.code {
					t.Errorf("dgc-sim %s: exit code %d, want %d", strings.Join(args, " "), code, sc.code)
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
