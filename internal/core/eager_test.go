package core

import (
	"testing"
)

// TestEagerAbortStopsBeforeForwarding reproduces the §3.2 optimization: in
// the arrival-guard race (P1 re-summarized after an invocation, P2 did
// not), the detector aborts at P1 — before the final hop — instead of
// shipping the doomed CDM to P2.
func TestEagerAbortStopsBeforeForwarding(t *testing.T) {
	f := buildFig3(t, Config{})
	out := f.start(f.refF)
	if out.Kind != OutcomeForwarded {
		t.Fatalf("start = %+v", out)
	}
	// Invocation crosses P1 -> F@P2 after the detection started.
	if _, err := f.proc("P1").tb.BumpStubIC(f.refF.Dst); err != nil {
		t.Fatal(err)
	}
	if _, err := f.proc("P2").tb.BumpScionIC("P1", f.objF); err != nil {
		t.Fatal(err)
	}
	f.summarize("P1", 2)

	f.pump()
	if len(f.found) != 0 {
		t.Fatal("race produced a false detection")
	}
	// The abort happens at P1 (the sender), not P2.
	if got := f.proc("P1").outcomes[OutcomeAborted]; got != 1 {
		t.Fatalf("P1 aborted = %d, want 1 (eager)", got)
	}
	if got := f.proc("P2").outcomes[OutcomeAborted]; got != 0 {
		t.Fatalf("P2 aborted = %d, want 0 (CDM never sent)", got)
	}
	// One hop saved: P1 sent nothing.
	if got := f.proc("P1").sent; got != 0 {
		t.Fatalf("P1 sent %d CDMs, want 0", got)
	}
}

// TestEagerAbortDoesNotDisturbCleanDetection ensures the sender-side check is
// inert when counters are consistent.
func TestEagerAbortDoesNotDisturbCleanDetection(t *testing.T) {
	f := buildFig3(t, Config{})
	f.start(f.refF)
	f.pump()
	if len(f.found) != 1 || len(f.found[0].GarbageScions) != 4 {
		t.Fatalf("clean detection disturbed: %+v", f.found)
	}
}
