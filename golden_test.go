package virtualwire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"regexp"
	"testing"
	"time"
)

// poolTotals matches the two frame-pool bookkeeping totals of a report
// document. They count how often the recycling mechanism ran, not
// anything simulated, so a change to buffer ownership moves them and
// nothing else; see TestGoldenReports.
var poolTotals = regexp.MustCompile(`"pool/(gets|puts)": ?[0-9]+,?`)

// TestGoldenReports pins the exact bytes RunReport.WriteJSON produces on
// the legacy engine (Shards: 0) for the paper's three figure scenarios.
// Each case runs a fresh testbed under one seed, resets it under the
// next and runs again, and hashes both documents: report assembly, the
// encoder and the reset path are all inside the hash. The digests were
// recorded before the report/encode/reset paths were rewritten for
// speed; a change here is an output change, not a refactor.
//
// Each case carries a second digest, of the same bytes with the
// pool/gets and pool/puts totals cut out. It was recorded before frames
// started moving across point-to-point hops instead of being cloned, and
// it did not change when they did: that is the proof that the one
// re-pinning of the full digests moved the pool's bookkeeping and no
// simulated quantity.
func TestGoldenReports(t *testing.T) {
	fig8 := func(t testing.TB, seed int64) (*Testbed, func()) {
		src, err := os.ReadFile("bench/testdata/fig8_filters25_actions25.fsl")
		if err != nil {
			t.Fatal(err)
		}
		tb, err := New(Config{Seed: seed, RLL: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.AddNodesFromScript(string(src)); err != nil {
			t.Fatal(err)
		}
		if err := tb.LoadScript(string(src)); err != nil {
			t.Fatal(err)
		}
		arm := func() {
			if _, err := tb.AddUDPEcho(UDPEchoConfig{
				Client: "node1", Server: "node2", ServerPort: 9000,
				Size: 18, Interval: 100 * time.Microsecond, Count: 500,
			}); err != nil {
				t.Fatal(err)
			}
		}
		arm()
		return tb, arm
	}
	bulk := func(t testing.TB, tb *Testbed, to string, n int) func() {
		return func() {
			if _, err := tb.AddTCPBulk(TCPBulkConfig{
				From: "node1", To: to, SrcPort: 0x6000, DstPort: 0x4000, Bytes: n,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name    string
		seed    int64
		horizon time.Duration
		build   func(t testing.TB, seed int64) (*Testbed, func())
		want    string
		noPool  string
	}{
		{"fig5", 1, 60 * time.Second, func(t testing.TB, seed int64) (*Testbed, func()) {
			tb, _ := fig5Testbed(t, seed, false)
			return tb, bulk(t, tb, "node2", 80*1024)
		}, "5d30a39ba116b2653710255160c915611a32fb5581665cb7374ccb5da2e0301e",
			"fd79c763c513247b1d881c96e2c0a6702403bfb40f72f067a22fc0f02536e73f"},
		{"fig6", 3, 120 * time.Second, func(t testing.TB, seed int64) (*Testbed, func()) {
			tb, _ := fig6Testbed(t, seed)
			return tb, bulk(t, tb, "node4", 4<<20)
		}, "e41c812f26db9a5a264b04b2acd235c9645e264795ded6196e51522247bece8b",
			"c797fadab71ce4d00d9ef053ea792efe2d4630c94e2fca6380a249aa6e005b22"},
		{"fig8iii", 8, 60 * time.Second, fig8, "65f68a8230a882458958ffa80f684ea971af263e5672fcbc3a7b1fa985741949",
			"a116917235e6cb0f9780e28d76ea78a57cfd9d19e0984835a72a1b4b60c4c17e"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tb, rearm := c.build(t, c.seed)
			var doc bytes.Buffer
			for i := int64(0); i < 2; i++ {
				if i > 0 {
					if err := tb.Reset(c.seed + i); err != nil {
						t.Fatal(err)
					}
					rearm()
				}
				rep, err := tb.Run(c.horizon)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Passed {
					t.Fatalf("run %d: verdict %s", i, rep.Verdict)
				}
				if err := rep.WriteJSON(&doc); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(doc.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("report digest %s, want %s (%d bytes)", got, c.want, doc.Len())
			}
			sum = sha256.Sum256(poolTotals.ReplaceAll(doc.Bytes(), nil))
			if got := hex.EncodeToString(sum[:]); got != c.noPool {
				t.Errorf("report digest without pool totals %s, want %s", got, c.noPool)
			}
		})
	}
}
