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
// digests were last recorded when the report began to leave out all-zero
// layer rows (OutputGeneration 5): fig6 lost node2's and node3's ip and
// tcp rows and fig8iii both nodes' tcp rows, with no reading changing
// value, and fig5, whose every row is active, did not move (DESIGN.md,
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
		{"fig6", "ca1444cededbee898e6895f84e6df6393b9e09aa652b19045aa9d76dfac4fb51",
			"a28fccab0b032f015ffa81b3bf80020538bceb0992284d96414c39a8bb8140fa"},
		{"fig8iii", "a733ac67d05e37a220a0ecaaf916e09e83a960a14b0255eec3cc63f8e036e0fd",
			"761ac45bbe50fe5b58d15c0e90dbb61b8a84adea582385aabec84dbeae136297"},
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
