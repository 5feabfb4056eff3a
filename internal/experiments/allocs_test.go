package experiments

import "testing"

// TestInvokeAllocsPinned pins the allocations of one stepped in-process
// remote invoke exporting ten fresh references (Table 1's call), with the
// DGC off and on. Like the codec's pin it is a cost gate host noise cannot
// trip: an increase is a regression, and a decrease lowers the pin in the
// same change.
func TestInvokeAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, c := range []struct {
		name    string
		disable bool
		want    float64
	}{{"plain", true, 32}, {"withDGC", false, 32}} {
		w, err := NewRMIWorkload(InProc, 10, c.disable)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Call(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := w.Call(); err != nil {
				t.Fatal(err)
			}
		})
		w.Close()
		if got != c.want {
			t.Errorf("%s: %v allocs per call, pinned at %v", c.name, got, c.want)
		}
	}
}
