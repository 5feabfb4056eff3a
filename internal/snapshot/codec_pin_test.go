package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"dgc/internal/heap"
	"dgc/internal/ids"
)

// pinnedHeap is a fixed heap covering everything an encoding records: roots,
// local refs (one of them dangling), remote refs to several nodes, payloads,
// and ids left unused by deleted objects.
func pinnedHeap(t *testing.T) *heap.Heap {
	t.Helper()
	rng := rand.New(rand.NewSource(35))
	h := heap.New("pin")
	var objs []ids.ObjID
	for i := 0; i < 300; i++ {
		var payload []byte
		if i%3 == 0 {
			payload = []byte(fmt.Sprintf("payload-%d", i))
		}
		objs = append(objs, h.Alloc(payload).ID)
	}
	for i := 0; i < 600; i++ {
		if err := h.AddLocalRef(objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		target := ids.GlobalRef{Node: ids.NodeID(fmt.Sprintf("peer%d", rng.Intn(4))), Obj: ids.ObjID(1 + rng.Intn(500))}
		if err := h.AddRemoteRef(objs[rng.Intn(len(objs))], target); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := h.AddRoot(objs[rng.Intn(len(objs))]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		h.Delete(objs[rng.Intn(len(objs))])
	}
	return h
}

// TestCodecOutputPinned pins both codecs' bytes for a fixed heap: a change to
// how the heap stores or walks its objects must not change what a snapshot
// says. BinaryCodec sizes its buffer exactly before writing, so its output
// also fills the buffer's capacity.
func TestCodecOutputPinned(t *testing.T) {
	want := map[string]string{
		"binary":  "357c270b50f2082a24ac0fe415d5fe4d15990524b558eadfcadfabb32f65072d",
		"reflect": "b6c6b4286804872f14ca79dd25ccf59508bb63e0bb339cb7b216886720d267c1",
	}
	h := pinnedHeap(t)
	for _, c := range codecs() {
		data, err := c.Encode(h)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() == "binary" && cap(data) != len(data) {
			t.Errorf("binary: buffer capacity %d for %d bytes: the size pass is not exact", cap(data), len(data))
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[c.Name()] {
			t.Errorf("%s: sha256 %s (%d bytes), want %s", c.Name(), got, len(data), want[c.Name()])
		}
	}
}
