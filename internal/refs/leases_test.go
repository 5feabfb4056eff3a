package refs

import "testing"

// --- holder leases: the membership-gated per-holder leases (DESIGN.md §14) ---

func TestLeaseRenewalKeepsScionAlive(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	const lease = 3
	tb.Renew("P1", 0)

	// Renewals arrive every tick: the scion survives indefinitely.
	for now := uint64(1); now <= 10; now++ {
		tb.Renew("P1", now)
		if got := tb.ExpireHolder("P1", now, lease); got != nil {
			t.Fatalf("tick %d: renewed holder expired: %v", now, got)
		}
	}
	if !tb.HasScion("P1", 6) {
		t.Fatal("scion gone despite renewals")
	}
}

func TestLeaseUnsafetyUnderSilence(t *testing.T) {
	// The point of the lease ablation: the holder still references the
	// object, but its renewals are lost for longer than the lease. Without
	// the membership gate, expiry alone deletes the scion.
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	const lease = 2
	tb.Renew("P1", 0)
	for now := uint64(1); now <= 5; now++ {
		tb.ExpireHolder("P1", now, lease)
	}
	if tb.HasScion("P1", 6) {
		t.Fatal("lease did not expire: the ablation would show nothing")
	}
}

func TestLeaseRegrantAfterExpiryRestartsClock(t *testing.T) {
	// A holder that references the owner again after its scions expired (a
	// new remote store arrives) is renewed afresh, not judged by the stale
	// record.
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	const lease = 2
	tb.Renew("P1", 0)
	if got := tb.ExpireHolder("P1", 3, lease); len(got) != 1 {
		t.Fatalf("setup expiry failed: %v", got)
	}
	tb.EnsureScion("P1", 6, 0)
	tb.Renew("P1", 3)
	if got := tb.ExpireHolder("P1", 5, lease); got != nil {
		t.Fatalf("renewed holder expired on the old clock: %v", got)
	}
	if got := tb.ExpireHolder("P1", 6, lease); len(got) != 1 {
		t.Fatalf("renewed lease never expired: %v", got)
	}
}

func TestHolderLeaseExpiryReclaimsScions(t *testing.T) {
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	tb.EnsureScion("P1", 3, 0)
	tb.EnsureScion("P3", 9, 0) // different holder: must survive P1's expiry
	const lease = 4
	tb.Renew("P1", 0)
	tb.Renew("P3", 0)

	if got := tb.ExpireHolder("P1", 4, lease); got != nil {
		t.Fatalf("expired within lease: %v", got)
	}
	got := tb.ExpireHolder("P1", 5, lease)
	if len(got) != 2 || got[0].Obj != 3 || got[1].Obj != 6 {
		t.Fatalf("ExpireHolder = %v, want P1's scions 3,6 in canonical order", got)
	}
	if tb.HasScion("P1", 6) || tb.HasScion("P1", 3) {
		t.Fatal("P1 scions survived reclamation")
	}
	if !tb.HasScion("P3", 9) {
		t.Fatal("false reclamation: P3's scion deleted by P1's expiry")
	}
}

func TestHolderLeaseRenewalRacesExpiry(t *testing.T) {
	// A renewal landing one tick before the horizon keeps every scion; the
	// same silence without it reclaims. This is the churn race: traffic from
	// a suspected-but-alive holder must always win over the expiry sweep.
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	const lease = 4
	tb.Renew("P1", 0)

	tb.Renew("P1", 4) // renewal racing the tick-5 sweep
	if got := tb.ExpireHolder("P1", 5, lease); got != nil {
		t.Fatalf("renewed holder reclaimed: %v", got)
	}
	if got := tb.ExpireHolder("P1", 9, lease); len(got) != 1 {
		t.Fatalf("silent holder kept lease: %v", got)
	}
}

func TestHolderLeaseRegrantRequiresHigherIncarnation(t *testing.T) {
	tb := NewTable("P2")
	const lease = 4
	if !tb.Regrant("P1", 1, 10) {
		t.Fatal("first regrant at incarnation 1 refused")
	}
	if tb.Regrant("P1", 1, 20) {
		t.Fatal("equal incarnation re-granted: a rejoining member must prove a restart")
	}
	if tb.Regrant("P1", 0, 20) {
		t.Fatal("stale incarnation re-granted")
	}
	if !tb.Regrant("P1", 2, 20) {
		t.Fatal("higher incarnation refused")
	}
	if !tb.LeaseValid("P1", 24, lease) {
		t.Fatal("regrant did not restart the lease clock")
	}
	if tb.LeaseValid("P1", 25, lease) {
		t.Fatal("regranted lease never ages")
	}
}

func TestHolderLeaseNeverHeardIsDefensivelyGranted(t *testing.T) {
	// Reclamation needs positive evidence of a full lease of silence; a
	// holder with no bookkeeping at all starts its clock at first check.
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	const lease = 4
	if !tb.LeaseValid("P1", 100, lease) {
		t.Fatal("never-heard holder treated as expired")
	}
	if got := tb.ExpireHolder("P1", 104, lease); got != nil {
		t.Fatalf("reclaimed within the defensive grant: %v", got)
	}
	if got := tb.ExpireHolder("P1", 105, lease); len(got) != 1 {
		t.Fatalf("defensive grant never expired: %v", got)
	}
}

func TestHolderLeaseCustodialPinsSurviveExpiry(t *testing.T) {
	// Drain handoffs pin scions into custody: holder death reclaims only the
	// unpinned remainder, and ReleaseCustodial sweeps the pinned set when the
	// departure is final.
	tb := NewTable("P2")
	tb.EnsureScion("P1", 6, 0)
	tb.EnsureScion("P1", 3, 0)
	const lease = 4
	tb.Renew("P1", 0)
	tb.Pin("P1", 3)

	got := tb.ExpireHolder("P1", 5, lease)
	if len(got) != 1 || got[0].Obj != 6 {
		t.Fatalf("ExpireHolder = %v, want only the unpinned scion 6", got)
	}
	if !tb.HasScion("P1", 3) {
		t.Fatal("custodial scion reclaimed by lease expiry")
	}
	rel := tb.ReleaseCustodial("P1")
	if len(rel) != 1 || rel[0].Obj != 3 {
		t.Fatalf("ReleaseCustodial = %v", rel)
	}
	if tb.HasScion("P1", 3) {
		t.Fatal("custodial scion survived release")
	}
}
