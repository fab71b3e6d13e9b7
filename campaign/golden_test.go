package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"testing"
)

// TestGoldenCampaignJSONL pins the exact bytes of a 16-run campaign
// (8 seeds x BER {0, 1e-6}, legacy engine) — every record line and the
// summary. Testbeds are reused across runs, so the reset path, report
// assembly and record encoding are all inside the hash; see
// TestGoldenReports in the facade package for the indented-document
// counterpart. As there, a second digest covers the same bytes without
// the frame pool's pool/gets and pool/puts totals and predates the one
// re-pinning of the full digest: the mechanism's bookkeeping moved,
// nothing simulated did.
func TestGoldenCampaignJSONL(t *testing.T) {
	spec := quickstartSpec(8, []float64{0, 1e-6})
	if spec.Runs() != 16 {
		t.Fatalf("matrix has %d runs, want 16", spec.Runs())
	}
	jsonl, sum := runToBytes(t, spec, 2)
	h := sha256.New()
	h.Write(jsonl)
	h.Write(sum)
	const want = "6442e7ea2d1c529791c8bed29a9407abad6b0d8293762bcc07880aef8f4e3f16"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("campaign digest %s, want %s (%d JSONL bytes)", got, want, len(jsonl))
	}
	poolTotals := regexp.MustCompile(`"pool/(gets|puts)": ?[0-9]+,?`)
	h.Reset()
	h.Write(poolTotals.ReplaceAll(jsonl, nil))
	h.Write(poolTotals.ReplaceAll(sum, nil))
	const wantNoPool = "e8ca4eaf562e9a7a89cbc48daea5e095c840627cdafaee366b6fee98f46d3f0a"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantNoPool {
		t.Errorf("campaign digest without pool totals %s, want %s", got, wantNoPool)
	}
}
