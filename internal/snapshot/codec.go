package snapshot

import (
	"fmt"
	"os"

	"dgc/internal/heap"
)

// Codec serializes and deserializes a whole process heap. Two
// implementations reproduce the paper's serialization experiment:
//
//   - ReflectCodec: a deliberately naive reflective, textual serializer
//     standing in for Rotor's "very inefficient serialization code";
//   - BinaryCodec: a compact length-prefixed binary serializer standing in
//     for production .NET serialization ("roughly, 100 times faster").
type Codec interface {
	// Name identifies the codec in experiment output.
	Name() string
	// Encode serializes the heap.
	Encode(h *heap.Heap) ([]byte, error)
	// Decode reconstructs a heap from Encode's output.
	Decode(data []byte) (*heap.Heap, error)
}

// WriteFile stores an encoded snapshot at path — the paper's "each process
// stores a snapshot of its internal object graph on disk" (§2.2) — through a
// temporary file renamed into place, so a reader never sees a torn snapshot.
// Not fsynced: nothing restores from these files.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort; the write error is what the caller needs
		return fmt.Errorf("snapshot: write %s: %w", path, err)
	}
	return nil
}

// ReadFile reads a serialized snapshot from path and decodes it.
func ReadFile(c Codec, path string) (*heap.Heap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	h, err := c.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: decode %s with %s: %w", path, c.Name(), err)
	}
	return h, nil
}
