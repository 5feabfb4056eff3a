package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dgc/internal/ids"
)

// TestSeqMonotoneUnderConcurrentWriters runs many writers against one log
// (under -race in CI) and checks the journal's core contract: the sequence
// is gapless and strictly increasing across whatever the ring retained.
func TestSeqMonotoneUnderConcurrentWriters(t *testing.T) {
	l := New(256)
	const writers, per = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.EmitTraced("P1", KindCustom, uint64(g), "w=%d i=%d", g, i)
			}
		}()
	}
	wg.Wait()
	if l.Total() != writers*per {
		t.Fatalf("Total = %d, want %d", l.Total(), writers*per)
	}
	events, missed := l.Since(0)
	if len(events) != 256 {
		t.Fatalf("retained %d events, want 256", len(events))
	}
	if missed != writers*per-256 {
		t.Fatalf("missed = %d, want %d", missed, writers*per-256)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}
	if last := events[len(events)-1].Seq; last != writers*per {
		t.Fatalf("last seq = %d, want %d", last, writers*per)
	}
}

// TestReadersRenderWhileWritersGrowTables renders on readers' goroutines,
// outside the log's lock, while writers grow the string and shape tables
// past their bounds and evict fallback texts (under -race in CI): every
// detail read must be the one its writer emitted.
func TestReadersRenderWhileWritersGrowTables(t *testing.T) {
	l := New(128)
	const writers, per = 4, 600
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Emit(ids.NodeID(fmt.Sprintf("w%d", g)), KindCustom, "name=%s i=%d", fmt.Sprintf("n%d-%d", g, i), i)
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				events, _ := l.Since(0)
				for _, e := range events {
					var g, i, j int
					if _, err := fmt.Sscanf(e.Detail, "name=n%d-%d i=%d", &g, &i, &j); err != nil ||
						i != j || e.Node != ids.NodeID(fmt.Sprintf("w%d", g)) {
						t.Errorf("seq %d: node %q detail %q", e.Seq, e.Node, e.Detail)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if l.Total() != writers*per {
		t.Fatalf("Total = %d, want %d", l.Total(), writers*per)
	}
}

// TestSinceResumeAcrossTruncation drives the ?since= resume protocol: a
// consumer that kept up resumes gaplessly; one that slept through a ring
// wrap is told exactly how many events it can never see.
func TestSinceResumeAcrossTruncation(t *testing.T) {
	l := New(16)
	for i := 0; i < 10; i++ {
		l.Emit("P1", KindCustom, "n=%d", i)
	}
	events, missed := l.Since(4)
	if missed != 0 {
		t.Fatalf("missed = %d before any eviction", missed)
	}
	if len(events) != 6 || events[0].Seq != 5 || events[5].Seq != 10 {
		t.Fatalf("resume window = %+v", events)
	}

	// Wrap the ring: seq 1..24 emitted, 16 retained (9..24), 8 evicted.
	for i := 10; i < 24; i++ {
		l.Emit("P1", KindCustom, "n=%d", i)
	}
	events, missed = l.Since(4)
	if missed != 4 {
		t.Fatalf("missed = %d, want 4 (seqs 5..8 evicted)", missed)
	}
	if len(events) != 16 || events[0].Seq != 9 {
		t.Fatalf("post-truncation window starts at %d, want 9", events[0].Seq)
	}
	// A consumer current through the last retained event resumes empty.
	events, missed = l.Since(24)
	if len(events) != 0 || missed != 0 {
		t.Fatalf("caught-up resume = %d events, %d missed", len(events), missed)
	}
}

// TestSubscribeDelivery checks ordered fan-out to a keeping-up subscriber
// and clean detach on Close.
func TestSubscribeDelivery(t *testing.T) {
	l := New(64)
	sub := l.Subscribe(32)
	for i := 0; i < 5; i++ {
		l.EmitTraced("P1", KindCDMSent, 7, "n=%d", i)
	}
	for i := 0; i < 5; i++ {
		select {
		case e := <-sub.Events():
			if e.Seq != uint64(i+1) || e.Trace != 7 {
				t.Fatalf("event %d = %+v", i, e)
			}
		case <-time.After(time.Second):
			t.Fatal("subscriber starved")
		}
	}
	sub.Close()
	if _, open := <-sub.Events(); open {
		t.Fatal("channel open after Close")
	}
	if sub.Evicted() {
		t.Fatal("explicit Close reported as eviction")
	}
	if n := liveSubs(l); n != 0 {
		t.Fatalf("%d live subscriptions after Close", n)
	}
	l.Emit("P1", KindCustom, "after close") // must not panic or block
}

// liveSubs counts the log's attached subscriptions.
func liveSubs(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.subs)
}

// TestSlowSubscriberEvictedNotBlocking is the backpressure contract: a
// subscriber that never drains fills its buffer and is evicted, while Emit
// keeps completing (bounded time, no deadlock) and other subscribers and the
// ring are unaffected.
func TestSlowSubscriberEvictedNotBlocking(t *testing.T) {
	l := New(64)
	slow := l.Subscribe(16)
	fast := l.Subscribe(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			l.Emit("P1", KindCustom, "n=%d", i)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a slow subscriber")
	}
	if !slow.Evicted() {
		t.Fatal("slow subscriber not evicted")
	}
	// The evicted channel holds its buffered prefix, then closes.
	n := 0
	for range slow.Events() {
		n++
	}
	if n != 16 {
		t.Fatalf("slow subscriber drained %d buffered events, want 16", n)
	}
	// The fast subscriber saw everything, in order.
	for i := 0; i < 100; i++ {
		e := <-fast.Events()
		if e.Seq != uint64(i+1) {
			t.Fatalf("fast subscriber: event %d has seq %d", i, e.Seq)
		}
	}
	if n := liveSubs(l); n != 1 || fast.Evicted() {
		t.Fatalf("%d live subscriptions, fast evicted %v: want the fast one live and only the slow one evicted",
			n, fast.Evicted())
	}
	if l.Total() != 100 {
		t.Fatalf("Total = %d", l.Total())
	}
	slow.Close() // idempotent after eviction
	fast.Close()
}

// TestParseKind round-trips every named kind and rejects junk.
func TestParseKind(t *testing.T) {
	for k := KindLGC; k <= KindFault; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v,%v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("nonsense"); ok {
		t.Error("ParseKind accepted junk")
	}
}

// TestEmitTracedFields pins the new Event fields: trace id and a wall-clock
// stamp, with the String rendering unchanged (the simulator's -trace output
// depends on it).
func TestEmitTracedFields(t *testing.T) {
	l := New(16)
	before := time.Now()
	l.EmitTraced("P1", KindDetectionEnd, 0xabc, "outcome=%s", "cycle-found")
	e := l.Snapshot()[0]
	if e.Trace != 0xabc {
		t.Fatalf("Trace = %#x", e.Trace)
	}
	if e.At.Before(before) || time.Since(e.At) > time.Minute {
		t.Fatalf("At = %v not a fresh wall-clock stamp", e.At)
	}
	if got, want := e.String(), "#1 P1 detection-end: outcome=cycle-found"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
