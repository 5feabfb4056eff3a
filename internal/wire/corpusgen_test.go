package wire

import (
	"os"
	"strconv"
	"testing"

	"dgc/internal/ids"
)

// TestGenerateCorpus regenerates the checked-in detection-message fuzz corpus
// (valid batches plus the malformed BatchCDM framings and CDM entry orders the
// decoder must reject without panicking). Skipped unless WIRE_GEN_CORPUS is
// set; the written files are committed under testdata/fuzz/FuzzDecode.
func TestGenerateCorpus(t *testing.T) {
	if os.Getenv("WIRE_GEN_CORPUS") == "" {
		t.Skip("set WIRE_GEN_CORPUS=1 to regenerate")
	}
	rs := batchRefs()
	entries := map[string][]byte{
		"batchcdm-valid":         Encode(testBatch(false)),
		"batchcdm-return":        Encode(testBatch(true)),
		"batchcdm-truncated":     Encode(testBatch(false))[:20],
		"batchcdm-zero-sections": newRawBatch(1, false, rs[:1]).sections(0).buf,
		"batchcdm-zero-entries":  newRawBatch(1, false, rs[:1]).sections(1).section("P1", 1, 0).buf,
		"batchcdm-dup-detection": newRawBatch(1, false, rs[:2]).sections(2).
			section("P1", 7, 0, 1).section("P1", 7, 0, 1).buf,
		"batchcdm-mixed-alongs": newRawBatch(1, false, rs[:2]).sections(2).
			section("P1", 7, 0, 1).section("P1", 7, 1, 1).buf,
		"batchcdm-along-range": newRawBatch(1, false, rs[:1]).sections(1).section("P1", 1, 1, 0).buf,
		"batchcdm-unsorted-dict": newRawBatch(1, false, []ids.RefID{rs[1], rs[0]}).
			sections(1).section("P1", 1, 0, 0, 1).buf,
	}
	_, bad := nonCanonicalCDMs()
	for name, data := range bad {
		entries[name] = data
	}
	for name, data := range entries {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile("testdata/fuzz/FuzzDecode/"+name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
