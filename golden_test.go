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

// TestGoldenReports pins the exact bytes RunReport.WriteJSON produces for
// the paper's three figure scenarios. Each case runs a fresh testbed
// under one seed, resets it under the next and runs again, and hashes
// both documents: report assembly, the encoder and the reset path are all
// inside the hash. A change here is an output change, not a refactor.
//
// A digest can only say the bytes moved, not whether the figure still
// shows what the paper says it shows, so each run first has to meet the
// claim its figure stands for; only then are its bytes hashed. The
// digests were last recorded when the single-queue engine was removed
// and Shards: 0 became one shard of the windowed engine (EXPERIMENTS.md,
// "The one-engine byte break").
//
// Each case carries a second digest, of the same bytes with the
// pool/gets and pool/puts totals cut out: a change to buffer ownership
// moves the full digest and leaves this one alone, which is the proof
// that it moved the pool's bookkeeping and no simulated quantity.
func TestGoldenReports(t *testing.T) {
	// A case's build returns a fresh testbed with its workload added and
	// arm, which is called before every run — again reports whether the
	// testbed was Reset and needs its workload back — and returns the
	// check of the figure's claim against that run.
	type claim func(t *testing.T, rep RunReport)
	bulk := func(t *testing.T, tb *Testbed, to string, n int) *TCPBulk {
		w, err := tb.AddTCPBulk(TCPBulkConfig{
			From: "node1", To: to, SrcPort: 0x6000, DstPort: 0x4000, Bytes: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Fig 5: exactly one SYN-ACK is dropped, TCP recovers and delivers
	// every byte, and the slow-start analysis flags nothing.
	fig5 := func(t *testing.T, seed int64) (*Testbed, func(again bool) claim) {
		tb, w := fig5Testbed(t, seed, false)
		return tb, func(again bool) claim {
			if again {
				w = bulk(t, tb, "node2", 80<<10)
			}
			return func(t *testing.T, rep RunReport) {
				if len(rep.Faults) != 1 || rep.Faults[0].Kind != "DROP" || rep.Faults[0].PacketType != "TCP_synack" {
					t.Fatalf("faults %+v, want exactly one DROP of TCP_synack", rep.Faults)
				}
				if w.DeliveredBytes() != 80<<10 {
					t.Fatalf("delivered %d of %d bytes", w.DeliveredBytes(), 80<<10)
				}
				if !rep.Passed || len(rep.Errors) != 0 {
					t.Fatalf("analysis script flagged a conforming TCP: %s %v", rep.Verdict, rep.Errors)
				}
			}
		}
	}
	// Fig 6: the script crashes node3, the three survivors rebuild the
	// ring and complete a token cycle, and the script STOPs the scenario.
	fig6 := func(t *testing.T, seed int64) (*Testbed, func(again bool) claim) {
		tb, _ := fig6Testbed(t, seed)
		return tb, func(again bool) claim {
			if again {
				bulk(t, tb, "node4", 4<<20)
			}
			return func(t *testing.T, rep RunReport) {
				if rep.Verdict != "stopped" || !rep.Passed {
					t.Fatalf("verdict %s (passed %v), want stopped", rep.Verdict, rep.Passed)
				}
				for _, n := range tb.Nodes() {
					if n.Name() == "node3" {
						if !n.Failed() {
							t.Fatal("node3 was never crashed")
						}
					} else if got := retherRingSize(t, n); got != 3 {
						t.Fatalf("%s ring size %v, want the 3 survivors", n.Name(), got)
					}
				}
			}
		}
	}
	// Fig 8 (iii): 25 filters and 25 actions per packet slow the echoes
	// down, but every one of them comes back.
	fig8 := func(t *testing.T, seed int64) (*Testbed, func(again bool) claim) {
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
		return tb, func(bool) claim {
			echo, err := tb.AddUDPEcho(UDPEchoConfig{
				Client: "node1", Server: "node2", ServerPort: 9000,
				Size: 18, Interval: 100 * time.Microsecond, Count: 500,
			})
			if err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T, rep RunReport) {
				if echo.Sent() != 500 || echo.Received() != 500 {
					t.Fatalf("echoes: sent %d, received %d, want 500 of 500", echo.Sent(), echo.Received())
				}
				if !rep.Passed {
					t.Fatalf("verdict %s", rep.Verdict)
				}
			}
		}
	}
	cases := []struct {
		name    string
		seed    int64
		horizon time.Duration
		build   func(t *testing.T, seed int64) (*Testbed, func(again bool) claim)
		want    string
		noPool  string
	}{
		{"fig5", 1, 60 * time.Second, fig5,
			"bcb7e267a604eb9f28adeac50bccd22bc1c523373aa893de179baf4ddf6c6eae",
			"62c45353d98248b1a3b40f61cb80399c502757db10b61c3a480ed0931d90d475"},
		{"fig6", 3, 120 * time.Second, fig6,
			"d2fff07edea029201ab72c67acba8435455f4fb75af91156a96a5f254d01c697",
			"e89c1695a8ea3deb371b1b694a3837af3b18025860b3742a8b5bcf3fc0e2573b"},
		{"fig8iii", 8, 60 * time.Second, fig8,
			"7fbe1aab63124cd88cbeb6e712f164777ce150a80058af152d7ab27351008fd5",
			"ae8759646e5df0524a47b7ff08f7a72b4b8594c85c0ef082b2472eec6e5fd6de"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tb, arm := c.build(t, c.seed)
			var doc bytes.Buffer
			for i := int64(0); i < 2; i++ {
				if i > 0 {
					if err := tb.Reset(c.seed + i); err != nil {
						t.Fatal(err)
					}
				}
				check := arm(i > 0)
				rep, err := tb.Run(c.horizon)
				if err != nil {
					t.Fatal(err)
				}
				check(t, rep)
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
