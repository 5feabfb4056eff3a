package lgc

import (
	"testing"

	"dgc/internal/ids"
)

func TestPinnedRefsKeepStubs(t *testing.T) {
	h, tb, c := newNode(t, "P1")
	// No object holds the reference; only the pin protects the stub.
	target := ids.GlobalRef{Node: "P2", Obj: 6}
	tb.EnsureStub(target)
	if _, err := tb.BumpStubIC(target); err != nil {
		t.Fatal(err)
	}
	_ = h

	res := c.Collect(target)
	if res.StubsDeleted != 0 {
		t.Fatalf("pinned stub deleted: %+v", res)
	}
	if ic, ok := tb.StubIC(target); !ok || ic != 1 {
		t.Fatalf("pinned stub lost or reset: IC %d, present %v", ic, ok)
	}

	// Without the pin the stub is reclaimed.
	res = c.Collect()
	if res.StubsDeleted != 1 || tb.HasStub(target) {
		t.Fatalf("unpinned stub survived: %+v", res)
	}
}

func TestPinnedRefCreatesStubIfMissing(t *testing.T) {
	_, tb, c := newNode(t, "P1")
	target := ids.GlobalRef{Node: "P2", Obj: 6}
	res := c.Collect(target)
	if res.StubsCreated != 1 || !tb.HasStub(target) {
		t.Fatalf("pinned ref did not materialize a stub: %+v", res)
	}
}
