package node

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dgc/internal/heap"
	"dgc/internal/snapshot"
)

// countingCodec counts Encode calls: serialization is the cost §4 measures,
// so a summarization must pay it once however many places the bytes go.
type countingCodec struct {
	snapshot.BinaryCodec
	encodes *int
}

func (c countingCodec) Encode(h *heap.Heap) ([]byte, error) {
	*c.encodes++
	return c.BinaryCodec.Encode(h)
}

func TestSnapshotDirWritesSerializedSnapshots(t *testing.T) {
	dir := t.TempDir()
	encodes := 0
	tn := newTestNet(t, Config{Codec: countingCodec{encodes: &encodes}, SnapshotDir: dir}, "A")
	a := tn.n("A")
	obj := allocRooted(t, a)
	_ = obj

	// Every call rebuilds: an unchanged heap is encoded and written again.
	for i := 0; i < 2; i++ {
		if err := a.Summarize(); err != nil {
			t.Fatal(err)
		}
	}
	a.With(func(m Mutator) { m.Alloc(nil) })
	if err := a.Summarize(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("snapshot files = %d, want 3", len(entries))
	}
	if encodes != 3 {
		t.Fatalf("Encode calls = %d for 3 snapshot files, want 1 each", encodes)
	}
	if met := a.Metrics(); met.Summarizations.Value() != 3 {
		t.Fatalf("Summarizations = %d, want 3", met.Summarizations.Value())
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "A-") || !strings.HasSuffix(e.Name(), ".binary.snap") {
			t.Errorf("unexpected snapshot file name %q", e.Name())
		}
	}
	// The snapshot on disk decodes back to the heap contents.
	h, err := snapshot.ReadFile(snapshot.BinaryCodec{}, filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 || h.Node() != "A" {
		t.Fatalf("decoded snapshot: %d objects on %s", h.Len(), h.Node())
	}
}

// TestSnapshotCodecWithoutDirEncodesOncePerSummarize: with no directory the
// codec still runs, once per summarization, and nothing is written.
func TestSnapshotCodecWithoutDirEncodesOncePerSummarize(t *testing.T) {
	encodes := 0
	tn := newTestNet(t, Config{Codec: countingCodec{encodes: &encodes}}, "A")
	a := tn.n("A")
	allocRooted(t, a)
	for i := 0; i < 2; i++ {
		if err := a.Summarize(); err != nil {
			t.Fatal(err)
		}
	}
	if encodes != 2 {
		t.Errorf("Encode calls = %d for 2 summarizations, want 1 each", encodes)
	}
	if got := a.Metrics().Summarizations.Value(); got != 2 {
		t.Errorf("Summarizations = %d, want 2", got)
	}
}
