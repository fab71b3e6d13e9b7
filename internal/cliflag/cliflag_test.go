package cliflag

import "testing"

func TestParseTCPSpec(t *testing.T) {
	cfg, err := TCP("node1:24576-node2:16384:81920")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.From != "node1" || cfg.To != "node2" {
		t.Errorf("hosts: %s -> %s", cfg.From, cfg.To)
	}
	if cfg.SrcPort != 24576 || cfg.DstPort != 16384 || cfg.Bytes != 81920 {
		t.Errorf("parsed %+v", cfg)
	}
	// Hex ports accepted.
	cfg, err = TCP("a:0x6000-b:0x4000:1")
	if err != nil {
		t.Fatalf("hex parse: %v", err)
	}
	if cfg.SrcPort != 0x6000 || cfg.DstPort != 0x4000 {
		t.Errorf("hex ports: %#x %#x", cfg.SrcPort, cfg.DstPort)
	}
	for _, bad := range []string{"", "a:1", "a:1-b:2", "a-b:2:3", "a:x-b:2:3", "a:1-b:2:x", "a:70000-b:2:3"} {
		if _, err := TCP(bad); err == nil {
			t.Errorf("TCP(%q) succeeded", bad)
		}
	}
}

func TestParseEchoSpec(t *testing.T) {
	cfg, err := Echo("node1-node2:9000:250")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.Client != "node1" || cfg.Server != "node2" ||
		cfg.ServerPort != 9000 || cfg.Count != 250 {
		t.Errorf("parsed %+v", cfg)
	}
	for _, bad := range []string{"", "a", "a-b", "a-b:1", "a-b:x:2", "a-b:1:x"} {
		if _, err := Echo(bad); err == nil {
			t.Errorf("Echo(%q) succeeded", bad)
		}
	}
}
