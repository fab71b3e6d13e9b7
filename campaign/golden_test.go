package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"testing"
)

// TestGoldenCampaignJSONL pins the exact bytes of a 16-run campaign
// (8 seeds x BER {0, 1e-6}) — every record line and the summary: the
// baseline of the identity table's golden-16 row, whose check holds all
// 16 runs to passing and delivering their whole transfer before the bytes
// count. Testbeds are reused across runs, so the reset path, report
// assembly and record encoding are all inside the hash; see
// TestGoldenReports in the facade package for the indented-document
// counterpart. The digests were last recorded when the single-queue
// engine was removed (OutputGeneration 2), and a second digest covers
// the same bytes without the frame pool's pool/gets and pool/puts totals,
// so a change that moves only the mechanism's bookkeeping can show that
// nothing simulated moved.
func TestGoldenCampaignJSONL(t *testing.T) {
	var golden campaignRow
	for _, r := range campaignRows() {
		if r.name == "golden-16" {
			golden = r
		}
	}
	out := golden.baseline(t)
	jsonl := golden.sink(out)
	sum := out[len(jsonl):]
	h := sha256.New()
	h.Write(jsonl)
	h.Write(sum)
	const want = "1e3d0e08ffbe091565ec8ca4d30ca81c8b5d0fd5c6dc62f7627d0b378dc4f535"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("campaign digest %s, want %s (%d JSONL bytes)", got, want, len(jsonl))
	}
	poolTotals := regexp.MustCompile(`"pool/(gets|puts)": ?[0-9]+,?`)
	h.Reset()
	h.Write(poolTotals.ReplaceAll(jsonl, nil))
	h.Write(poolTotals.ReplaceAll(sum, nil))
	const wantNoPool = "57900c4da89822709e3cd8f31ed55a7ba1248b6dd6373c1ebe324711f41eda3a"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantNoPool {
		t.Errorf("campaign digest without pool totals %s, want %s", got, wantNoPool)
	}
}
