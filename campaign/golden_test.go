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
// counterpart. The digests were last recorded when forwarding became
// planned (OutputGeneration 4), which moved only switch and pool
// counters; generation 5 did not move them, as no quickstart record has
// an all-zero layer row. A second digest covers
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
	const want = "fc4fbe2340947600f5fa96867e83eb3d3af5c4f9d2899da57f7ee0dfac338f1a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("campaign digest %s, want %s (%d JSONL bytes)", got, want, len(jsonl))
	}
	poolTotals := regexp.MustCompile(`"pool/(gets|puts)": ?[0-9]+,?`)
	h.Reset()
	h.Write(poolTotals.ReplaceAll(jsonl, nil))
	h.Write(poolTotals.ReplaceAll(sum, nil))
	const wantNoPool = "0625d9bb67ad8a95e6e8c145a907a824da57834449c514d40f35df4088593621"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantNoPool {
		t.Errorf("campaign digest without pool totals %s, want %s", got, wantNoPool)
	}
}
