package virtualwire

import (
	"strings"
	"testing"
	"time"
)

// TestRetherReservationViaFacade exercises the admission-control API end
// to end on the Figure 6 testbed.
func TestRetherReservationViaFacade(t *testing.T) {
	script := readScript(t, "fig6_rether_failure.fsl")
	tb, err := New(Config{Seed: 51, Medium: MediumBus})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		t.Fatal(err)
	}
	if err := tb.InstallRether([]string{"node1", "node2", "node3", "node4"},
		RetherConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	// Build happens inside Run; start with a short idle spin.
	if _, err := tb.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	node4, _ := tb.Node("node4")
	var granted bool
	var slots int
	if err := node4.RequestRTSlots(12, func(g bool, s int) { granted = g; slots = s }); err != nil {
		t.Fatalf("request: %v", err)
	}
	if err := tb.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !granted || slots != 12 {
		t.Errorf("reservation: granted=%v slots=%d", granted, slots)
	}
	// A host without Rether reports an error.
	tb2, _ := New(Config{Seed: 52})
	n, err := tb2.AddHost("x", "00:00:00:00:00:33", "10.9.9.9")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RequestRTSlots(1, nil); err == nil {
		t.Error("reservation on a non-Rether host succeeded")
	}
}

// TestRetherWithRLLUnderBitErrors combines every layer: Rether over the
// engines over the RLL on a noisy bus. The ring must stay intact (no
// false failure detection from masked bit errors) and data must flow.
func TestRetherWithRLLUnderBitErrors(t *testing.T) {
	script := readScript(t, "fig6_rether_failure.fsl")
	tb, err := New(Config{
		Seed:         53,
		Medium:       MediumBus,
		RLL:          true,
		BitErrorRate: 5e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		t.Fatal(err)
	}
	if err := tb.InstallRether([]string{"node1", "node2", "node3", "node4"},
		RetherConfig{}); err != nil {
		t.Fatal(err)
	}
	// No scenario script loaded: this is a pure substrate soak.
	echoServer, _ := tb.Node("node4")
	_ = echoServer
	bulk, err := tb.AddTCPBulk(TCPBulkConfig{
		From: "node1", To: "node4",
		SrcPort: 0x6000, DstPort: 0x4000, Bytes: 128 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if bulk.DeliveredBytes() != 128*1024 {
		t.Fatalf("delivered %d", bulk.DeliveredBytes())
	}
	for _, name := range []string{"node1", "node2", "node3", "node4"} {
		n, _ := tb.Node(name)
		if got := retherRingSize(t, n); got != 4 {
			t.Errorf("%s ring size = %v; bit errors leaked past the RLL into failure detection", name, got)
		}
	}
}

// TestTestbedMisuse covers the builder's error paths.
func TestTestbedMisuse(t *testing.T) {
	tb, _ := New(Config{})
	if _, err := tb.AddHost("a", "zz:bad:mac", "10.0.0.1"); err == nil {
		t.Error("bad MAC accepted")
	}
	if _, err := tb.AddHost("a", "00:00:00:00:00:01", "999.0.0.1"); err == nil {
		t.Error("bad IP accepted")
	}
	if _, err := tb.AddHost("a", "00:00:00:00:00:01", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("a", "00:00:00:00:00:02", "10.0.0.2"); err == nil {
		t.Error("duplicate host accepted")
	}
	if err := tb.InstallRether([]string{"ghost"}, RetherConfig{}); err == nil {
		t.Error("rether ring with unknown host accepted")
	}
	if _, err := tb.AddTCPBulk(TCPBulkConfig{From: "ghost", To: "a", Bytes: 1}); err == nil {
		t.Error("workload with unknown host accepted")
	}
	if _, err := tb.AddTCPBulk(TCPBulkConfig{From: "a", To: "a"}); err == nil {
		t.Error("workload without Bytes or Rate accepted")
	}
	if _, err := tb.AddUDPEcho(UDPEchoConfig{Client: "ghost", Server: "a"}); err == nil {
		t.Error("echo with unknown host accepted")
	}
	if err := tb.LoadScript("SCENARIO"); err == nil {
		t.Error("malformed script accepted")
	}
	if err := tb.RunFor(time.Second); err != nil {
		t.Errorf("RunFor before Run now builds the testbed itself, got %v", err)
	}
	if _, err := New(Config{Medium: MediumKind(99)}); err == nil {
		t.Error("unknown medium accepted")
	}
}

// TestParseMedium: the one parser of medium names, behind vwire -medium
// and a campaign config's "medium".
func TestParseMedium(t *testing.T) {
	for name, want := range map[string]MediumKind{"": 0, "switch": MediumSwitch, "bus": MediumBus, "fdswitch": MediumSwitchFullDuplex} {
		if got, err := ParseMedium(name); err != nil || got != want {
			t.Errorf("ParseMedium(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"Switch", "hub", " bus"} {
		if _, err := ParseMedium(bad); err == nil {
			t.Errorf("ParseMedium(%q) succeeded", bad)
		}
	}
}

// TestMediumBusEndToEnd runs the plain facade over the shared bus.
func TestMediumBusEndToEnd(t *testing.T) {
	tb, err := New(Config{Seed: 54, Medium: MediumBus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("a", "00:00:00:00:00:01", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("b", "00:00:00:00:00:02", "10.0.0.2"); err != nil {
		t.Fatal(err)
	}
	echo, err := tb.AddUDPEcho(UDPEchoConfig{Client: "a", Server: "b", ServerPort: 7, Count: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if echo.Received() != 50 {
		t.Errorf("received %d/50 on the bus", echo.Received())
	}
}

// TestNodeAccessors covers the small identity surface of Node.
func TestNodeAccessors(t *testing.T) {
	tb, _ := New(Config{})
	n, err := tb.AddHost("node9", "00:46:61:af:fe:09", "192.168.1.9")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "node9" {
		t.Errorf("Name = %q", n.Name())
	}
	if n.MAC() != "00:46:61:af:fe:09" {
		t.Errorf("MAC = %q", n.MAC())
	}
	if n.IP() != "192.168.1.9" {
		t.Errorf("IP = %q", n.IP())
	}
	if n.Failed() {
		t.Error("fresh node failed")
	}
	if _, ok := n.Snapshot("rether"); ok {
		t.Error("rether snapshot without rether")
	}
	if _, ok := n.CounterValue("nope"); ok {
		t.Error("counter value without a program")
	}
	if got := tb.Nodes(); len(got) != 1 || got[0] != n {
		t.Errorf("Nodes() = %v", got)
	}
	if _, ok := tb.Node("ghost"); ok {
		t.Error("ghost node found")
	}
	if tb.DumpTables() != "" {
		t.Error("DumpTables without a script")
	}
	if tr := tb.Trace(); tr != nil {
		t.Errorf("Trace without capacity: %v", tr)
	}
}

// TestGenerateScenariosFacade smoke-tests the public generation wrapper.
func TestGenerateScenariosFacade(t *testing.T) {
	scs, err := GenerateScenarios(GenConfig{
		Prologue: `
FILTER_TABLE
f: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END
NODE_TABLE
a 00:00:00:00:00:01 10.0.0.1
b 00:00:00:00:00:02 10.0.0.2
END
`,
		PacketType: "f", From: "a", To: "b", Dir: "RECV",
		Faults:      []FaultKind{FaultDrop},
		Occurrences: []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || !strings.Contains(scs[0].Script, "DROP") {
		t.Errorf("scenarios: %+v", scs)
	}
}

// retherRingSize reads a node's ring membership size from its Rether
// snapshot.
func retherRingSize(t *testing.T, n *Node) float64 {
	t.Helper()
	sn, ok := n.Snapshot("rether")
	if !ok {
		t.Fatalf("%s runs no Rether", n.Name())
	}
	size, ok := sn.Get("ring_size")
	if !ok {
		t.Fatalf("%s: rether snapshot has no ring_size", n.Name())
	}
	return size
}
