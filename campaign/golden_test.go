package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"regexp"
	"testing"
)

// TestGoldenCampaignJSONL pins the exact bytes of a 16-run campaign
// (8 seeds x BER {0, 1e-6}) — every record line and the summary.
// Testbeds are reused across runs, so the reset path, report assembly
// and record encoding are all inside the hash; see TestGoldenReports in
// the facade package for the indented-document counterpart. As there,
// the claim comes before the bytes — all 16 runs pass, every one
// delivering its whole transfer — the digests were last recorded when
// the single-queue engine was removed (OutputGeneration 2), and a second
// digest covers the same bytes without the frame pool's pool/gets and
// pool/puts totals, so a change that moves only the mechanism's
// bookkeeping can show that nothing simulated moved.
func TestGoldenCampaignJSONL(t *testing.T) {
	spec := quickstartSpec(8, []float64{0, 1e-6})
	if spec.Runs() != 16 {
		t.Fatalf("matrix has %d runs, want 16", spec.Runs())
	}
	jsonl, sum := runToBytes(t, spec, 2)
	recs := scanJSONL(t, jsonl)
	if len(recs) != 16 {
		t.Fatalf("%d records, want 16", len(recs))
	}
	for _, r := range recs {
		if r.Outcome != OutcomePass || r.DeliveredBytes != 16*1024 {
			t.Fatalf("run %d: outcome %s, %d bytes delivered; want pass and all %d", r.Index, r.Outcome, r.DeliveredBytes, 16*1024)
		}
	}
	var summary Summary
	if err := json.Unmarshal(sum, &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Passed != 16 {
		t.Fatalf("summary counts %d of 16 runs passed", summary.Passed)
	}
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
