package ether

import (
	"math/rand"
	"testing"
	"time"

	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// TestSwitchAccountingIdentityUnderFaults is the forwarding-path
// accounting property: on random tree fabrics with random traffic and
// random runtime block/fail/crash toggles, every switch's ingress
// frames partition exactly into the four outcome counters once the
// pipeline drains:
//
//	IngressFrames == ForwardedFrames + FloodedFrames +
//	                 BlockedFrames + DroppedFrames
//
// Before the fix, flood-time discards (all egress ports blocked) and
// fire-time discards (egress blocked/failed/self, switch crashed with
// frames in the pipeline) vanished without incrementing any counter.
func TestSwitchAccountingIdentityUnderFaults(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*2654435761 + 99))
		s := sim.NewScheduler(int64(trial + 1))
		nsw := 2 + rng.Intn(4)
		sws := make([]*Switch, nsw)
		for i := range sws {
			sws[i] = NewSwitch(s, SwitchConfig{ID: i, FullDuplex: true})
		}
		// Random tree wiring (no loops, so no flood storms regardless of
		// which ports the toggles block).
		type portRef struct {
			sw   *Switch
			port int
		}
		var trunkPorts []portRef
		tr := newTrunkRig(s)
		for i := 1; i < nsw; i++ {
			parent := rng.Intn(i)
			pa, pb := tr.connect(sws[parent], sws[i], LinkConfig{})
			trunkPorts = append(trunkPorts, portRef{sws[parent], pa}, portRef{sws[i], pb})
		}
		// Two hosts per switch.
		hostsPer := 2
		var nics []*NIC
		var macs []packet.MAC
		for i := 0; i < nsw; i++ {
			for h := 0; h < hostsPer; h++ {
				m := mac(byte(1 + i*hostsPer + h))
				n := NewNIC(s, m, 0)
				n.SetRecv(func(*Frame) {})
				sws[i].AttachHost(n)
				nics = append(nics, n)
				macs = append(macs, m)
			}
		}
		// Random traffic: unicast to known hosts, unknown destinations
		// (floods) and broadcasts, spread over the first 3ms.
		for hi, n := range nics {
			src := macs[hi]
			count := 5 + rng.Intn(12)
			for k := 0; k < count; k++ {
				at := time.Duration(rng.Intn(3000)) * time.Microsecond
				var dst packet.MAC
				switch rng.Intn(5) {
				case 0:
					dst = packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
				case 1:
					dst = mac(byte(200 + rng.Intn(4))) // never learned: floods
				default:
					dst = macs[rng.Intn(len(macs))]
				}
				nic := n
				size := 64 + rng.Intn(400)
				s.At(at, "test.send", func() { nic.Send(testFrame(src, dst, size)) })
			}
		}
		// Random fault toggles racing the traffic: trunk-port blocking
		// (spanning-tree moves), trunk-port failure and switch
		// crash/restart, all mid-run.
		for _, pr := range trunkPorts {
			pr := pr
			if rng.Intn(3) == 0 {
				at := time.Duration(rng.Intn(3000)) * time.Microsecond
				s.At(at, "test.block", func() { pr.sw.SetPortBlocked(pr.port, true) })
				if rng.Intn(2) == 0 {
					s.At(at+time.Duration(500+rng.Intn(1000))*time.Microsecond, "test.unblock",
						func() { pr.sw.SetPortBlocked(pr.port, false) })
				}
			}
			if rng.Intn(4) == 0 {
				at := time.Duration(rng.Intn(3000)) * time.Microsecond
				s.At(at, "test.fail", func() { pr.sw.SetPortFailed(pr.port, true) })
			}
		}
		for _, sw := range sws {
			if rng.Intn(3) != 0 {
				continue
			}
			sw := sw
			at := time.Duration(rng.Intn(3000)) * time.Microsecond
			s.At(at, "test.crash", func() { sw.SetDown(true) })
			s.At(at+time.Duration(500+rng.Intn(1000))*time.Microsecond, "test.restart",
				func() { sw.SetDown(false) })
		}
		if err := tr.run(nil); err != nil {
			t.Fatalf("trial %d: run: %v", trial, err)
		}
		for i, sw := range sws {
			sum := sw.ForwardedFrames + sw.FloodedFrames + sw.BlockedFrames + sw.DroppedFrames
			if sw.IngressFrames != sum {
				t.Fatalf("trial %d switch %d: ingress %d != forwarded %d + flooded %d + blocked %d + dropped %d",
					trial, i, sw.IngressFrames, sw.ForwardedFrames, sw.FloodedFrames, sw.BlockedFrames, sw.DroppedFrames)
			}
		}
	}
}

// TestSwitchFireTimeRecheck pins the fire-time port-state bug: a frame
// accepted at ingress toward a port that goes down before the
// store-and-forward latency elapses must be discarded — and counted —
// instead of transmitted out the dead port with the stale ingress-time
// decision.
func TestSwitchFireTimeRecheck(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s, SwitchConfig{ID: 0, FullDuplex: true})
	a, b := NewNIC(s, mac(1), 0), NewNIC(s, mac(2), 0)
	gotB := 0
	a.SetRecv(func(*Frame) {})
	b.SetRecv(func(*Frame) { gotB++ })
	sw.AttachHost(a)
	pb := sw.AttachHost(b)
	// Send toward b, then fail b's port while the frame sits in the
	// switch's forwarding pipeline (the store-and-forward latency is 5us;
	// the failure lands after ingress but before fire time).
	a.Send(testFrame(mac(1), mac(2), 64))
	s.At(s.Now()+8*time.Microsecond, "test.fail", func() { sw.SetPortFailed(pb, true) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotB != 0 {
		t.Fatalf("frame delivered out a port that failed before fire time (gotB=%d)", gotB)
	}
	if sw.DroppedFrames != 1 {
		t.Fatalf("DroppedFrames = %d, want 1 (fire-time discard)", sw.DroppedFrames)
	}
	sum := sw.ForwardedFrames + sw.FloodedFrames + sw.BlockedFrames + sw.DroppedFrames
	if sw.IngressFrames != sum {
		t.Fatalf("accounting identity broken: ingress %d, outcomes %d", sw.IngressFrames, sum)
	}
}
