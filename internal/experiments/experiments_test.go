package experiments

import "testing"

func TestTable1ShapesMatchPaper(t *testing.T) {
	// Small call counts keep the test fast; the paper's observation is the
	// SHAPE: DGC adds a bounded relative overhead per call.
	rows, err := Table1([]int{10, 50}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Plain <= 0 || r.WithDGC <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		if r.WithDGC < r.Plain {
			t.Logf("note: DGC faster than plain on %d calls (noise at this scale)", r.Calls)
		}
		// Paper band: 7-21%. Allow a broad sanity band here: the overhead
		// must not be an order of magnitude.
		if r.VariationPct > 400 {
			t.Errorf("overhead %.1f%% looks pathological: %+v", r.VariationPct, r)
		}
	}
}

func TestRMIWorkloadCreatesScionsPerCall(t *testing.T) {
	w, err := NewRMIWorkload(InProc, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Call(); err != nil {
			t.Fatal(err)
		}
	}
	// 10 fresh scions per call at the client (the exported args) plus the
	// bootstrap scion for the server anchor.
	if got := w.client.NumScions(); got != 30 {
		t.Fatalf("client scions = %d, want 30", got)
	}
}

func TestSerializationShapesMatchPaper(t *testing.T) {
	rows, err := Serialization(2000, 5) // the fastest of 5 encodes per row
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]SerializationRow{}
	for _, r := range rows {
		key := r.Codec
		if r.WithStubs {
			key += "+stubs"
		}
		byKey[key] = r
	}
	// Shape 1: stubs add cost, but less than doubling (paper: +73%).
	for _, codec := range []string{"reflect", "binary"} {
		base, stubs := byKey[codec], byKey[codec+"+stubs"]
		if stubs.Duration <= base.Duration {
			t.Logf("note: %s stubs not slower at this size (noise)", codec)
		}
		if stubs.Duration > base.Duration*4 {
			t.Errorf("%s: stubs quadrupled cost: %v vs %v", codec, stubs.Duration, base.Duration)
		}
	}
	// Shape 2: the naive codec is much slower than the binary codec
	// (paper: ~100x between Rotor and production .NET).
	if byKey["reflect"].Duration < byKey["binary"].Duration*2 {
		t.Errorf("reflect (%v) not clearly slower than binary (%v)",
			byKey["reflect"].Duration, byKey["binary"].Duration)
	}
	// And bigger on the wire.
	if byKey["reflect"].Bytes <= byKey["binary"].Bytes {
		t.Errorf("reflect bytes %d <= binary bytes %d", byKey["reflect"].Bytes, byKey["binary"].Bytes)
	}
}

func TestDetectionScaleGrowsLinearly(t *testing.T) {
	rows, err := DetectionScale([]int{2, 4, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// CDMs per completed detection grow with ring length, sub-quadratically
	// in these sizes.
	if rows[2].CDMsSent <= rows[0].CDMsSent {
		t.Errorf("CDMs did not grow with ring size: %+v", rows)
	}
	if rows[2].CDMsSent > rows[0].CDMsSent*64 {
		t.Errorf("CDM growth looks super-linear: %+v", rows)
	}
	for _, r := range rows {
		if r.RoundsToEmpty <= 0 {
			t.Errorf("ring %d uncollected: %+v", r.Procs, r)
		}
	}
}

func TestLossSweepDegradesGracefully(t *testing.T) {
	rows, err := LossSweep([]float64{0, 0.3}, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Collected {
			t.Errorf("loss %.0f%%: not collected in %d rounds", r.LossRate*100, r.Rounds)
		}
	}
	if rows[1].Rounds < rows[0].Rounds {
		t.Logf("note: lossy run finished faster (seeded luck): %+v", rows)
	}
}

func TestRaceAbortRateSafety(t *testing.T) {
	rows, err := RaceAbortRate([]int{0, 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FalsePositives != 0 {
			t.Fatalf("SAFETY: %d live objects reclaimed: %+v", r.FalsePositives, r)
		}
		if r.CyclesFound != 0 {
			t.Fatalf("SAFETY: live ring declared garbage: %+v", r)
		}
	}
	// With migrations racing the detections, counter mismatches must abort
	// at least some of them; without migrations, none abort.
	if rows[0].Aborted != 0 {
		t.Errorf("quiescent run aborted detections: %+v", rows[0])
	}
	if rows[1].Aborted == 0 {
		t.Errorf("racing run produced no aborts: %+v", rows[1])
	}
}
