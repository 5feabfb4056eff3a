package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestEmitAndSnapshot(t *testing.T) {
	l := New(16)
	l.Emit("P1", KindLGC, "swept=%d", 3)
	l.Emit("P2", KindCycleFound, "scions=%d", 4)
	events := l.Snapshot()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("sequence numbers: %+v", events)
	}
	if events[0].Node != "P1" || events[0].Kind != KindLGC || events[0].Detail != "swept=3" {
		t.Fatalf("event[0] = %+v", events[0])
	}
	if got := events[1].String(); !strings.Contains(got, "cycle-found") || !strings.Contains(got, "P2") {
		t.Errorf("String = %q", got)
	}
}

func TestRingEviction(t *testing.T) {
	l := New(16) // minimum capacity
	for i := 0; i < 40; i++ {
		l.Emit("P1", KindCustom, "n=%d", i)
	}
	if l.Len() != 16 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Total() != 40 {
		t.Fatalf("Total = %d", l.Total())
	}
	events := l.Snapshot()
	// A synthetic KindDropped event heads the snapshot once eviction begins.
	if len(events) != 17 {
		t.Fatalf("snapshot = %d events, want 16 + synthetic head", len(events))
	}
	if events[0].Kind != KindDropped || events[0].Seq != 0 {
		t.Fatalf("head = %+v, want synthetic KindDropped", events[0])
	}
	if events[1].Detail != "n=24" || events[16].Detail != "n=39" {
		t.Fatalf("wrong retained window: first=%q last=%q", events[1].Detail, events[16].Detail)
	}
	// Strictly increasing sequence numbers survive eviction.
	for i := 2; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq at %d", i)
		}
	}
}

func TestDroppedCount(t *testing.T) {
	l := New(16)
	for i := 0; i < 16; i++ {
		l.Emit("P1", KindCustom, "n=%d", i)
	}
	if l.Dropped() != 0 {
		t.Fatalf("Dropped = %d before overflow", l.Dropped())
	}
	if events := l.Snapshot(); len(events) != 16 || events[0].Kind == KindDropped {
		t.Fatalf("synthetic head present before overflow: %+v", events[0])
	}
	for i := 0; i < 24; i++ {
		l.Emit("P1", KindCustom, "n=%d", 16+i)
	}
	if l.Dropped() != 24 {
		t.Fatalf("Dropped = %d, want 24", l.Dropped())
	}
	head := l.Snapshot()[0]
	if head.Kind != KindDropped || !strings.Contains(head.Detail, "24") {
		t.Fatalf("synthetic head = %+v, want 24 evicted", head)
	}
}

func TestMinimumCapacityClamp(t *testing.T) {
	l := New(1)
	for i := 0; i < 20; i++ {
		l.Emit("P1", KindCustom, "x")
	}
	if l.Len() != 16 {
		t.Fatalf("Len = %d, want clamped capacity 16", l.Len())
	}
}

func TestOfKind(t *testing.T) {
	l := New(32)
	l.Emit("P1", KindLGC, "a")
	l.Emit("P1", KindCycleFound, "b")
	l.Emit("P2", KindLGC, "c")
	got := l.OfKind(KindLGC)
	if len(got) != 2 || got[0].Detail != "a" || got[1].Detail != "c" {
		t.Fatalf("OfKind = %+v", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindLGC; k <= KindDropped; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("Kind(%d).String() = %q", k, s)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

func TestConcurrentEmit(t *testing.T) {
	l := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Emit("P1", KindCustom, "x")
			}
		}()
	}
	wg.Wait()
	if l.Total() != 800 {
		t.Fatalf("Total = %d", l.Total())
	}
	if l.Len() != 64 {
		t.Fatalf("Len = %d", l.Len())
	}
}
