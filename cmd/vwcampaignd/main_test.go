package main

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"virtualwire/campaign"
	"virtualwire/campaign/service"
)

// A client that never finishes its request headers loses its connection;
// a record stream, which legitimately lasts as long as its campaign, is
// not cut by the same server.
func TestStalledClientIsClosedLiveStreamIsNot(t *testing.T) {
	m, err := service.Open(service.Config{Dir: t.TempDir(), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := newServer(service.NewHandler(m))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("server timeouts: read-header %v, idle %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v / WriteTimeout %v would cut submit bodies and record streams", srv.ReadTimeout, srv.WriteTimeout)
	}
	// The same server, but the test does not wait the daemon's ten seconds.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// A campaign that outlasts the timeout many times over (~2 s of
	// runs); it is canceled as soon as the test has seen what it needs.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := service.NewClient(ln.Addr().String())
	st, err := c.Submit(ctx, "t", []byte(`{"seed": 1, "seed_count": 4000, "hosts": 8, "horizon": "5s",
		"workloads": [{"kind": "manyflow", "flows": 8, "bytes": 16384}]}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	var streamed atomic.Int64
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.StreamRecords(ctx, st.ID, nil, func(campaign.RunRecord) { streamed.Add(1) })
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the stream's first record", func() bool { return streamed.Load() > 0 })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/campa")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		// io.Copy returns nil at EOF — the server hanging up. A deadline
		// error means it held the half-open request for ten seconds.
		t.Fatalf("server did not close the stalled connection: %v", err)
	}

	seen := streamed.Load()
	waitFor("a record after the stalled connection was closed", func() bool { return streamed.Load() > seen })
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-streamDone; err != nil {
		t.Errorf("record stream: %v", err)
	}
}
