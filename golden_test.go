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
// digests were last recorded when the single-queue engine was removed
// and Shards: 0 became one shard of the windowed engine (DESIGN.md,
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
		{"fig5", "bcb7e267a604eb9f28adeac50bccd22bc1c523373aa893de179baf4ddf6c6eae",
			"62c45353d98248b1a3b40f61cb80399c502757db10b61c3a480ed0931d90d475"},
		{"fig6", "d2fff07edea029201ab72c67acba8435455f4fb75af91156a96a5f254d01c697",
			"e89c1695a8ea3deb371b1b694a3837af3b18025860b3742a8b5bcf3fc0e2573b"},
		{"fig8iii", "7fbe1aab63124cd88cbeb6e712f164777ce150a80058af152d7ab27351008fd5",
			"ae8759646e5df0524a47b7ff08f7a72b4b8594c85c0ef082b2472eec6e5fd6de"},
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
