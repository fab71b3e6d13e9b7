package virtualwire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
	"time"
)

// TestGoldenReports pins the exact bytes RunReport.WriteJSON produces on
// the legacy engine (Shards: 0) for the paper's three figure scenarios.
// Each case runs a fresh testbed under one seed, resets it under the
// next and runs again, and hashes both documents: report assembly, the
// encoder and the reset path are all inside the hash. The digests were
// recorded before the report/encode/reset paths were rewritten for
// speed; a change here is an output change, not a refactor.
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
	}{
		{"fig5", 1, 60 * time.Second, func(t testing.TB, seed int64) (*Testbed, func()) {
			tb, _ := fig5Testbed(t, seed, false)
			return tb, bulk(t, tb, "node2", 80*1024)
		}, "0f4f0fdb4fd8d3b27f6158d3eeb9aed647349210470a920dbc4614f025ac54a7"},
		{"fig6", 3, 120 * time.Second, func(t testing.TB, seed int64) (*Testbed, func()) {
			tb, _ := fig6Testbed(t, seed)
			return tb, bulk(t, tb, "node4", 4<<20)
		}, "729b09268e9cac72a01fa07788ce859ac5d6e2f65e67c5409784e8f10c49cbd9"},
		{"fig8iii", 8, 60 * time.Second, fig8, "4a608f688faf635485f67f4d49c30a65e62aadb22197fd9ccea2c612c8ae586d"},
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
		})
	}
}
