package virtualwire

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// TestShardedRunForAndAuto covers the remaining entry points: RunFor
// drives the windowed engine without a controller, ShardsAuto resolves
// to a legal count, and a single-switch testbed accepts Shards >= 1 by
// collapsing to one shard.
func TestShardedRunForAndAuto(t *testing.T) {
	topo := TopologySpec{Kind: TopoStar, Switches: 4}
	tb, err := New(Config{Seed: 3, Shards: ShardsAuto, Topology: &topo})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 8)
	if _, err := tb.AddUDPStream(UDPStreamConfig{
		From: "h0001", To: "h0008", Port: 0x5400, Count: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := tb.shards.count; got < 1 || got > 4 {
		t.Fatalf("auto shard count = %d, want 1..4", got)
	}

	// Single switch: the windowed engine with no trunks, driven by RunFor.
	single, err := New(Config{Seed: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.AddHostGroup("h", 4); err != nil {
		t.Fatal(err)
	}
	if err := single.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if single.shards.count != 1 {
		t.Fatalf("single-switch shard count = %d, want 1", single.shards.count)
	}
	if got, want := single.sched.Now(), 50*time.Millisecond; got != want {
		t.Fatalf("RunFor left the clock at %v, want %v", got, want)
	}
}

// TestShardConfigValidation pins what New rejects and what it resolves:
// only a shard count that is no count is refused; one segment is one
// shard at any count, and tracing and sampling hold a fabric to none.
func TestShardConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: -2}); err == nil {
		t.Fatal("Shards: -2 accepted, want error")
	}
	star := &TopologySpec{Kind: TopoStar, Switches: 4}
	for _, c := range []struct {
		cfg    Config
		shards int
	}{
		{Config{Shards: 4, Medium: MediumBus}, 1},
		{Config{Shards: 4}, 1},
		{Config{Shards: 2, TraceCapacity: 64, MetricsSampleInterval: time.Millisecond, Topology: star}, 2},
		{Config{Shards: 4, TraceCapacity: 64, Topology: star}, 4},
	} {
		tb, err := New(c.cfg)
		if err != nil {
			t.Fatalf("config %+v: %v", c.cfg, err)
		}
		addGroupHosts(t, tb, 8)
		if err := tb.RunFor(time.Millisecond); err != nil {
			t.Fatalf("config %+v: %v", c.cfg, err)
		}
		if tb.shards.count != c.shards {
			t.Fatalf("config %+v built %d shards, want %d", c.cfg, tb.shards.count, c.shards)
		}
	}
}

// TestComponentSourceStream pins the per-component generator: PCG's
// stream is defined by its 128-bit state alone, so the first outputs
// for a seed are the same on every platform and Go release — the
// determinism contracts of the windowed engine rest on that — and
// reseeding in place (what Reset does) is indistinguishable from a fresh
// source, including through rand.Rand's own cached state.
func TestComponentSourceStream(t *testing.T) {
	pinned := map[int64][8]uint64{
		1: {0x9927a129abed2903, 0x16d0078c4a605356, 0xb7219997bcc14af2, 0x60fa9ae9e1453f8,
			0xb398002335b9b38c, 0x8e32528bbc6b0984, 0xcf83b14f56c50826, 0x97202e68d0cfef14},
		-0x123456789abcdef: {0x86f51a1733697347, 0x914322e2bfc65b84, 0xce60a9524558659c, 0xe6d4f2054518e171,
			0x7565e6985bdb3610, 0xa68a45f8d57f9eff, 0x914a8008bd9ce5a7, 0x65028ad989c9772},
	}
	reused := rand.New(new(pcgSource))
	for seed, want := range pinned {
		src := new(pcgSource)
		src.Seed(seed)
		for i, w := range want {
			if got := src.Uint64(); got != w {
				t.Fatalf("seed %d output %d = %#x, want %#x", seed, i, got, w)
			}
		}
		// A generator that has drawn through every rand.Rand path, then
		// was reseeded, against a fresh one.
		reused.Intn(7)
		reused.Float64()
		reused.Read(make([]byte, 3)) // leaves Rand's byte cache half used
		reused.Seed(seed)
		fresh := rand.New(new(pcgSource))
		fresh.Seed(seed)
		for i := 0; i < 64; i++ {
			if a, b := reused.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %#x, fresh %#x", seed, i, a, b)
			}
		}
		buf1, buf2 := make([]byte, 5), make([]byte, 5)
		reused.Read(buf1)
		fresh.Read(buf2)
		if !bytes.Equal(buf1, buf2) {
			t.Fatalf("seed %d: Read after reseed %x, fresh %x", seed, buf1, buf2)
		}
	}
}
