package ether_test

// The lifetime oracle. Frames are recycled by whichever layer ends their
// life; a layer that recycles one while something still reads it
// corrupts a frame in flight, silently, and usually with plausible
// bytes. With ether.PoisonNewPools on, every buffer returned to a pool
// is overwritten first, so such a read sees garbage and the run's output
// changes. Each scenario below therefore runs twice — pools clean, pools
// poisoned — and must produce identical bytes.
//
// The tests live here, outside the packages they drive, because the
// poison switch is exported to ether's own tests only.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"virtualwire"
	"virtualwire/campaign"
	"virtualwire/campaign/service"
	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/rll"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
	"virtualwire/internal/tcp"
)

// samePoisoned runs the scenario with clean and with poisoned pools and
// fails if the outputs differ. It returns the clean run's output.
func samePoisoned(t *testing.T, run func(t *testing.T) []byte) []byte {
	t.Helper()
	clean := run(t)
	ether.PoisonNewPools(true)
	defer ether.PoisonNewPools(false)
	poisoned := run(t)
	if !bytes.Equal(clean, poisoned) {
		at := 0
		for at < len(clean) && at < len(poisoned) && clean[at] == poisoned[at] {
			at++
		}
		t.Fatalf("output differs with poisoned pools (a frame was recycled while still in use): "+
			"%d vs %d bytes, first difference at %d", len(clean), len(poisoned), at)
	}
	if len(clean) == 0 {
		t.Fatal("scenario produced no output")
	}
	return clean
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// scripted builds a testbed from an FSL script's NODE_TABLE, loads one
// of its scenarios ("" = the only one), lets setup (if set) add layers,
// lets arm add workloads, runs it, then resets it under the next seed,
// arms and runs it again, as
// TestGoldenReports does, and returns both report documents. The second
// run is built from what the first left in the pools and in the layers'
// own reuse sites.
func scripted(t *testing.T, cfg virtualwire.Config, script, scenario string, horizon time.Duration,
	setup, arm func(tb *virtualwire.Testbed) error) []byte {
	t.Helper()
	tb, err := virtualwire.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := arm(tb); err != nil {
		t.Fatal(err)
	}
	if scenario == "" {
		err = tb.LoadScript(script)
	} else {
		err = tb.LoadScriptScenario(script, scenario)
	}
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	for i := int64(0); i < 2; i++ {
		if i > 0 {
			if err := tb.Reset(cfg.Seed + i); err != nil {
				t.Fatal(err)
			}
			if err := arm(tb); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := tb.Run(horizon)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
	}
	return doc.Bytes()
}

func bulk(to string, n int) func(tb *virtualwire.Testbed) error {
	return func(tb *virtualwire.Testbed) error {
		_, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: "node1", To: to, SrcPort: 0x6000, DstPort: 0x4000, Bytes: n,
		})
		return err
	}
}

func echo(count int, interval time.Duration) func(tb *virtualwire.Testbed) error {
	return func(tb *virtualwire.Testbed) error {
		_, err := tb.AddUDPEcho(virtualwire.UDPEchoConfig{
			Client: "node1", Server: "node2", ServerPort: 9000,
			Size: 18, Interval: interval, Count: count,
		})
		return err
	}
}

// TestPoisonedFigures: the paper's three figure scenarios — TCP through
// a switch with an engine DROP (Fig 5), TCP over a Rether bus with an
// engine FAIL (Fig 6), minimum-size echoes through 25 filters with the
// RLL on (Fig 8 iii).
func TestPoisonedFigures(t *testing.T) {
	t.Run("fig5", func(t *testing.T) {
		script := readFile(t, "../../scripts/fig5_tcp_ss_ca.fsl")
		samePoisoned(t, func(t *testing.T) []byte {
			return scripted(t, virtualwire.Config{Seed: 1}, script, "", 60*time.Second, nil, bulk("node2", 256<<10))
		})
	})
	t.Run("fig6", func(t *testing.T) {
		script := readFile(t, "../../scripts/fig6_rether_failure.fsl")
		samePoisoned(t, func(t *testing.T) []byte {
			return scripted(t, virtualwire.Config{Seed: 3, Medium: virtualwire.MediumBus}, script, "",
				120*time.Second, func(tb *virtualwire.Testbed) error {
					if err := tb.InstallRether([]string{"node1", "node2", "node3", "node4"},
						virtualwire.RetherConfig{}); err != nil {
						return err
					}
					tb.AddRTStream(0x6000, 0x4000)
					return nil
				}, bulk("node4", 4<<20))
		})
	})
	t.Run("fig8iii", func(t *testing.T) {
		script := readFile(t, "../../bench/testdata/fig8_filters25_actions25.fsl")
		samePoisoned(t, func(t *testing.T) []byte {
			return scripted(t, virtualwire.Config{Seed: 8, RLL: true}, script, "", 60*time.Second,
				nil, echo(500, 100*time.Microsecond))
		})
	})
}

// faultScript has one scenario per engine action that the multi-scenario
// regression file scripts/udp_faults.fsl (DUP, DELAY, REORDER) lacks:
// MODIFY rewrites a received frame in place, FAIL consumes everything
// that reaches a crashed node.
const faultScript = `
FILTER_TABLE
udp_data: (23 1 0x11), (36 2 0x2328)
END

NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END

SCENARIO modify_some 2sec
RX: (udp_data, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( RX );
((RX = 3)) >> MODIFY( udp_data, node1, node2, RECV, 50, 0xdead );
((RX = 5)) >> MODIFY( udp_data, node1, node2, RECV );
((RX = 20)) >> STOP;
END

SCENARIO fail_server 2sec
RX: (udp_data, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( RX );
((RX = 10)) >> FAIL( node2 );
END
`

// TestPoisonedEngineActions: every engine action that holds a frame past
// the call that delivered it (DELAY, REORDER), copies it (DUP), writes
// to it (MODIFY) or ends its life (FAIL), with and without the RLL —
// whose retransmission store is the other place frames are kept.
func TestPoisonedEngineActions(t *testing.T) {
	udpFaults := readFile(t, "../../scripts/udp_faults.fsl")
	cases := []struct{ script, scenario string }{
		{udpFaults, "dup_one"},
		{udpFaults, "delay_three"},
		{udpFaults, "reorder_window"},
		{faultScript, "modify_some"},
		{faultScript, "fail_server"},
	}
	for _, c := range cases {
		for _, withRLL := range []bool{false, true} {
			c, withRLL := c, withRLL
			t.Run(fmt.Sprintf("%s/rll=%v", c.scenario, withRLL), func(t *testing.T) {
				samePoisoned(t, func(t *testing.T) []byte {
					return scripted(t, virtualwire.Config{Seed: 62, RLL: withRLL}, c.script, c.scenario,
						30*time.Second, nil, echo(40, 5*time.Millisecond))
				})
			})
		}
	}
}

// goldenCampaign is the 16-run spec of campaign.TestGoldenCampaignJSONL.
func goldenCampaign(t *testing.T) campaign.Spec {
	spec := campaign.Spec{
		Name:      "quickstart-matrix",
		Seed:      42,
		SeedCount: 8,
		Script:    readFile(t, "../../scripts/quickstart_drop.fsl"),
		Horizon:   campaign.Duration(30 * time.Second),
		Workloads: []campaign.WorkloadSpec{{
			Kind: "tcpbulk", From: "node1", To: "node2",
			SrcPort: 0x6000, DstPort: 0x4000, Bytes: 16 << 10,
		}},
	}
	for _, ber := range []float64{0, 1e-6} {
		ber := ber
		spec.Configs = append(spec.Configs, campaign.ConfigOverride{
			Label: fmt.Sprintf("ber=%g", ber), BitErrorRate: &ber,
		})
	}
	return spec
}

// TestPoisonedCampaign: the 16-run campaign of TestGoldenCampaignJSONL —
// testbeds reused across runs, so frames parked in one run's pools are
// what the next run is built from.
func TestPoisonedCampaign(t *testing.T) {
	spec := goldenCampaign(t)
	samePoisoned(t, func(t *testing.T) []byte {
		var out bytes.Buffer
		sum, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 2, Sink: &out})
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	})
}

// TestPoisonedDaemonStreamResume: the same campaign through the daemon —
// submitted and streamed over HTTP, then cut back to its first five
// journaled runs and resumed by a reopened manager, the kill-and-restart
// path — streams the same records and summary, poisoned or not, and the
// resumed journal is the uninterrupted one.
func TestPoisonedDaemonStreamResume(t *testing.T) {
	raw, err := json.Marshal(goldenCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	samePoisoned(t, func(t *testing.T) []byte {
		ctx := context.Background()
		dir := t.TempDir()
		var out bytes.Buffer
		serve := func(submit bool, id string) string {
			m, err := service.Open(service.Config{Dir: dir, Budget: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			ts := httptest.NewServer(service.NewHandler(m))
			defer ts.Close()
			c := service.NewClient(ts.URL)
			if submit {
				st, err := c.Submit(ctx, "acme", raw, 2)
				if err != nil {
					t.Fatal(err)
				}
				id = st.ID
			}
			if err := c.StreamRecords(ctx, id, &out, nil); err != nil {
				t.Fatal(err)
			}
			sum, err := c.Summary(ctx, id, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := sum.WriteJSON(&out); err != nil {
				t.Fatal(err)
			}
			return id
		}
		id := serve(true, "")
		uninterrupted := out.Len()
		job := filepath.Join(dir, "jobs", id)
		journal, err := os.ReadFile(filepath.Join(job, "runs.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(journal, []byte("\n"))
		if err := os.WriteFile(filepath.Join(job, "runs.jsonl"), bytes.Join(lines[:5], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(job, "status.json")); err != nil {
			t.Fatal(err)
		}
		serve(false, id)
		if !bytes.Equal(out.Bytes()[:uninterrupted], out.Bytes()[uninterrupted:]) {
			t.Fatal("the resumed job streamed other bytes than the uninterrupted one")
		}
		return out.Bytes()
	})
}

// TestPoisonedFabricShards: a fat-tree with bit errors on every wire —
// corrupt frames are dropped at switch ports and host NICs, floods are
// cloned, frames cross from one shard's pool into another's — at 1, 2
// and 4 shards, which must also agree with each other.
func TestPoisonedFabricShards(t *testing.T) {
	var serial []byte
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := samePoisoned(t, func(t *testing.T) []byte {
				tb, err := virtualwire.New(virtualwire.Config{
					Seed: 77, Shards: shards, BitErrorRate: 2e-6,
					Topology: &virtualwire.TopologySpec{Kind: virtualwire.TopoFatTree, FatTreeK: 4},
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tb.AddHostGroup("h", 16); err != nil {
					t.Fatal(err)
				}
				if _, err := tb.AddManyFlow(virtualwire.ManyFlowConfig{Flows: 12, Bytes: 32 << 10}); err != nil {
					t.Fatal(err)
				}
				rep, err := tb.Run(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				var doc bytes.Buffer
				if err := rep.WriteJSON(&doc); err != nil {
					t.Fatal(err)
				}
				return doc.Bytes()
			})
			if serial == nil {
				serial = got
			} else if !bytes.Equal(got, serial) {
				t.Errorf("%d-shard report differs from the 1-shard report", shards)
			}
		})
	}
}

// hostPair is two full hosts across a pooled switch, RLL optional: the
// rig for the tests that look at delivered payload bytes.
type hostPair struct {
	sched *sim.Scheduler
	hosts [2]*stack.Host
	tcps  [2]*tcp.Stack
}

func newHostPair(withRLL bool, layers func(side int, s *sim.Scheduler, pool *ether.FramePool) []stack.Layer) *hostPair {
	p := &hostPair{sched: sim.NewScheduler(5)}
	pool := ether.NewFramePool()
	sw := ether.NewSwitch(p.sched, ether.SwitchConfig{Pool: pool})
	for i := range p.hosts {
		mac := packet.MAC{0, 0, 0, 0, 0, byte(i + 1)}
		h := stack.NewHost(p.sched, fmt.Sprintf("node%d", i+1), mac, packet.IP{10, 0, 0, byte(i + 1)})
		sw.AttachHost(h.NIC)
		var ls []stack.Layer
		if withRLL {
			r := rll.New(p.sched, mac, rll.Config{})
			r.SetPool(pool)
			h.NIC.DeliverCorrupt = true
			ls = append(ls, r)
		}
		if layers != nil {
			ls = append(ls, layers(i, p.sched, pool)...)
		}
		h.Build(ls...)
		p.hosts[i] = h
		p.tcps[i] = tcp.NewStack(h)
	}
	for _, h := range p.hosts {
		h.Neighbors[p.hosts[0].IP] = p.hosts[0].MAC
		h.Neighbors[p.hosts[1].IP] = p.hosts[1].MAC
	}
	return p
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + i%251) // never zero, never the poison byte's run
	}
	return b
}

// dropScript has the receiving engine drop two of the transfer's
// segments, so what follows each waits in TCP's reorder store.
const dropScript = `
FILTER_TABLE
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END

NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END

SCENARIO drop_two
DATA: (TCP_data, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( DATA );
((DATA = 5)) >> DROP TCP_data, node1, node2, RECV;
((DATA = 60)) >> DROP TCP_data, node1, node2, RECV;
END
`

// TestPoisonedPayloadBytes: what the applications receive, byte for
// byte — a TCP transfer and a UDP echo of a non-zero pattern, with and
// without the RLL, and the TCP transfer again with two segments dropped,
// delivered partly out of the reorder store. The report documents above
// carry counters only; a premature recycle that kept every count right
// would still show here.
func TestPoisonedPayloadBytes(t *testing.T) {
	for _, c := range []struct {
		name    string
		withRLL bool
		script  string
	}{{"tcp", false, ""}, {"tcp", true, ""}, {"tcp-drops", false, dropScript}} {
		c := c
		t.Run(fmt.Sprintf("%s/rll=%v", c.name, c.withRLL), func(t *testing.T) {
			var layers func(int, *sim.Scheduler, *ether.FramePool) []stack.Layer
			if c.script != "" {
				layers = engines(t, c.script)
			}
			want := pattern(300 << 10)
			got := samePoisoned(t, func(t *testing.T) []byte {
				p := newHostPair(c.withRLL, layers)
				lst, err := p.tcps[1].Listen(0x4000)
				if err != nil {
					t.Fatal(err)
				}
				var rcvd bytes.Buffer
				lst.OnAccept = func(c *tcp.Conn) {
					c.OnData = func(d []byte) { rcvd.Write(d) } // copies: d dies with the call
				}
				cli, err := p.tcps[0].Connect(0x6000, p.hosts[1].IP, 0x4000)
				if err != nil {
					t.Fatal(err)
				}
				cli.OnConnected = func() { cli.Send(want) }
				if err := p.sched.RunUntil(30 * time.Second); err != nil {
					t.Fatal(err)
				}
				return rcvd.Bytes()
			})
			if !bytes.Equal(got, want) {
				t.Errorf("received %d bytes, want the %d sent", len(got), len(want))
			}
		})
	}
	for _, withRLL := range []bool{false, true} {
		withRLL := withRLL
		t.Run(fmt.Sprintf("udp-echo/rll=%v", withRLL), func(t *testing.T) {
			const datagrams, size = 64, 700
			want := pattern(datagrams * size)
			got := samePoisoned(t, func(t *testing.T) []byte {
				p := newHostPair(withRLL, nil)
				srv, err := p.hosts[1].UDP.Bind(9000)
				if err != nil {
					t.Fatal(err)
				}
				srv.OnDatagram = func(src packet.IP, port uint16, d []byte) { _ = srv.SendTo(src, port, d) }
				cli, err := p.hosts[0].UDP.Bind(9001)
				if err != nil {
					t.Fatal(err)
				}
				var rcvd bytes.Buffer
				cli.OnDatagram = func(_ packet.IP, _ uint16, d []byte) { rcvd.Write(d) }
				for i := 0; i < datagrams; i++ {
					chunk := want[i*size : (i+1)*size]
					p.sched.After(time.Duration(i)*time.Millisecond, "test.ping", func() {
						_ = cli.SendTo(p.hosts[1].IP, 9000, chunk)
					})
				}
				if err := p.sched.RunUntil(time.Second); err != nil {
					t.Fatal(err)
				}
				return rcvd.Bytes()
			})
			if !bytes.Equal(got, want) {
				t.Errorf("echoed %d bytes, want the %d sent", len(got), len(want))
			}
		})
	}
}
