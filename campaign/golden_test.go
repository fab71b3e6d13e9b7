package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenCampaignJSONL pins the exact bytes of a 16-run campaign
// (8 seeds x BER {0, 1e-6}, legacy engine) — every record line and the
// summary. Testbeds are reused across runs, so the reset path, report
// assembly and record encoding are all inside the hash; see
// TestGoldenReports in the facade package for the indented-document
// counterpart.
func TestGoldenCampaignJSONL(t *testing.T) {
	spec := quickstartSpec(8, []float64{0, 1e-6})
	if spec.Runs() != 16 {
		t.Fatalf("matrix has %d runs, want 16", spec.Runs())
	}
	jsonl, sum := runToBytes(t, spec, 2)
	h := sha256.New()
	h.Write(jsonl)
	h.Write(sum)
	const want = "8dd2cc3fc15d213eb4261a12c438c99992c936738d6f241de04f538c9601f3ba"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("campaign digest %s, want %s (%d JSONL bytes)", got, want, len(jsonl))
	}
}
