package virtualwire

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"testing"
)

// poolTotals matches the two frame-pool bookkeeping totals of a report
// document. They count how often the recycling mechanism ran, not
// anything simulated, so a change to buffer ownership moves them and
// nothing else; see TestGoldenReports.
var poolTotals = regexp.MustCompile(`"pool/(gets|puts)": ?[0-9]+,?`)

// TestGoldenReports pins the exact bytes RunReport.WriteJSON produces for
// the paper's three figure scenarios: the identity table's fig5, fig6 and
// fig8iii rows, whose run checks hold every run to the claim its figure
// stands for — a digest can only say the bytes moved, not whether the
// figure still shows what the paper says it shows. Each digest is of the
// row's baselines at its two seeds, one document after the other; the
// table's reset column holds the second to what a testbed Reset after the
// first gives, so report assembly, the encoder and the reset path are all
// behind the hash. A change here is an output change, not a refactor. The
// digests were last recorded when forwarding became planned
// (OutputGeneration 4): fig5 and fig8iii moved only in their switch and
// pool counters, and fig6, on a bus, did not move (DESIGN.md,
// "Randomness and the determinism contracts").
//
// Each case carries a second digest, of the same bytes with the
// pool/gets and pool/puts totals cut out: a change to buffer ownership
// moves the full digest and leaves this one alone, which is the proof
// that it moved the pool's bookkeeping and no simulated quantity.
func TestGoldenReports(t *testing.T) {
	rows := make(map[string]identityRow)
	for _, r := range identityRows(t) {
		rows[r.name] = r
	}
	for _, c := range []struct{ row, want, noPool string }{
		{"fig5", "8bfc45e878a183c4f948eeeab96b7e8a872128bc2388a768aa1f6f5b7c8edb9b",
			"f15b9ede2cc854b4ed9ac3bf7e1490311cd40bb4d0d2fef16b8a80981a7aecd2"},
		{"fig6", "d2fff07edea029201ab72c67acba8435455f4fb75af91156a96a5f254d01c697",
			"e89c1695a8ea3deb371b1b694a3837af3b18025860b3742a8b5bcf3fc0e2573b"},
		{"fig8iii", "04e10eeaa4191329c6043f04ad493719ecf44bc7b2b2fde14c1528e9d85b593d",
			"df16039a102a1296178ff8f04e4a2bab6dd275efc618226d175c24aa04de7e16"},
	} {
		t.Run(c.row, func(t *testing.T) {
			r := rows[c.row]
			var doc []byte
			for _, seed := range r.seeds {
				doc = append(doc, r.baseline(t, seed)...)
			}
			sum := sha256.Sum256(doc)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("report digest %s, want %s (%d bytes)", got, c.want, len(doc))
			}
			sum = sha256.Sum256(poolTotals.ReplaceAll(doc, nil))
			if got := hex.EncodeToString(sum[:]); got != c.noPool {
				t.Errorf("report digest without pool totals %s, want %s", got, c.noPool)
			}
		})
	}
}
