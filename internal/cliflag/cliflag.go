// Package cliflag parses the workload flag grammars that vwire and
// vwcampaign share, so each grammar has one parser: -tcp
// (from:port-to:port:bytes) and -echo (client-server:port:count). Ports
// accept 0x... as well as decimal. Medium names go through
// virtualwire.ParseMedium.
package cliflag

import (
	"fmt"
	"strconv"
	"strings"

	"virtualwire"
)

// TCP parses from:port-to:port:bytes into a bulk transfer.
func TCP(s string) (virtualwire.TCPBulkConfig, error) {
	var cfg virtualwire.TCPBulkConfig
	halves := strings.SplitN(s, "-", 2)
	if len(halves) != 2 {
		return cfg, fmt.Errorf("want from:port-to:port:bytes")
	}
	fp := strings.Split(halves[0], ":")
	tp := strings.Split(halves[1], ":")
	if len(fp) != 2 || len(tp) != 3 {
		return cfg, fmt.Errorf("want from:port-to:port:bytes")
	}
	sport, err := strconv.ParseUint(fp[1], 0, 16)
	if err != nil {
		return cfg, err
	}
	dport, err := strconv.ParseUint(tp[1], 0, 16)
	if err != nil {
		return cfg, err
	}
	bytes, err := strconv.Atoi(tp[2])
	if err != nil {
		return cfg, err
	}
	cfg.From, cfg.To = fp[0], tp[0]
	cfg.SrcPort, cfg.DstPort = uint16(sport), uint16(dport)
	cfg.Bytes = bytes
	return cfg, nil
}

// Echo parses client-server:port:count into a UDP echo workload.
func Echo(s string) (virtualwire.UDPEchoConfig, error) {
	var cfg virtualwire.UDPEchoConfig
	halves := strings.SplitN(s, "-", 2)
	if len(halves) != 2 {
		return cfg, fmt.Errorf("want client-server:port:count")
	}
	sp := strings.Split(halves[1], ":")
	if len(sp) != 3 {
		return cfg, fmt.Errorf("want client-server:port:count")
	}
	port, err := strconv.ParseUint(sp[1], 0, 16)
	if err != nil {
		return cfg, err
	}
	count, err := strconv.Atoi(sp[2])
	if err != nil {
		return cfg, err
	}
	cfg.Client, cfg.Server = halves[0], sp[0]
	cfg.ServerPort = uint16(port)
	cfg.Count = count
	return cfg, nil
}
