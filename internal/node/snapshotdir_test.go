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

	if err := a.Summarize(); err != nil {
		t.Fatal(err)
	}
	// An unchanged heap is a summarization cache hit: no new snapshot file.
	if err := a.Summarize(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil {
		t.Fatal(err)
	} else if len(entries) != 1 {
		t.Fatalf("snapshot files after cache hit = %d, want 1", len(entries))
	}
	if s := a.Stats(); s.Summarizations != 2 || s.SummaryCacheHits != 1 {
		t.Fatalf("Summarizations=%d CacheHits=%d, want 2 and 1",
			s.Summarizations, s.SummaryCacheHits)
	}
	// A heap mutation invalidates the cache and produces a second file.
	a.With(func(m Mutator) { m.Alloc(nil) })
	if err := a.Summarize(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("snapshot files = %d, want 2", len(entries))
	}
	if encodes != 2 {
		t.Fatalf("Encode calls = %d for 2 snapshot files, want 1 each", encodes)
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
	if s := a.Stats(); s.SnapshotBytes == 0 {
		t.Error("SnapshotBytes not accounted")
	}
}

func TestSnapshotCodecWithoutDirAccountsBytesOnly(t *testing.T) {
	tn := newTestNet(t, Config{Codec: snapshot.ReflectCodec{}}, "A")
	a := tn.n("A")
	allocRooted(t, a)
	if err := a.Summarize(); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.SnapshotBytes == 0 {
		t.Error("SnapshotBytes not accounted without dir")
	}
}
