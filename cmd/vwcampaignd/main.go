// Command vwcampaignd runs fault-injection campaigns as a service: a
// daemon that accepts versioned campaign specs over an HTTP/JSON API,
// schedules them fairly across tenants within a shared worker budget,
// journals every run to disk, and streams results back to clients (see
// docs/SERVICE.md for the API).
//
//	vwcampaignd -dir /var/lib/vwcampaignd -listen 127.0.0.1:8047
//
// Determinism survives the daemon: a campaign's record stream is
// byte-identical to an in-process `vwcampaign` run of the same spec,
// even when the daemon is killed mid-campaign and restarted — the
// journal resumes at the first run it never recorded. SIGINT/SIGTERM
// shut down cleanly: running campaigns are interrupted without a
// terminal state, so the next start resumes them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"virtualwire/campaign/service"
)

// The two http.Server timeouts that bound what an idle or stalled client
// may hold. Not ReadTimeout or WriteTimeout: those run over the whole
// request and response, and would cut a submit body of up to 64 MiB and
// every record stream that outlives them.
const (
	// readHeaderTimeout is how long a connection may take to send its
	// request line and headers before the server closes it.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout is how long a keep-alive connection may sit between
	// requests.
	idleTimeout = 2 * time.Minute
)

func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vwcampaignd:", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("dir", "", "journal root directory (required); jobs live in <dir>/jobs/<id>/")
	listen := flag.String("listen", "127.0.0.1:8047", "HTTP listen address (port 0 picks a free port)")
	budget := flag.Int("budget", 0, "shared worker-slot budget across all jobs (0 = GOMAXPROCS)")
	workers := flag.Int("workers", 0, "default per-job worker grant (0 = the full budget)")
	flag.Parse()

	if *dir == "" {
		flag.Usage()
		return fmt.Errorf("-dir is required")
	}

	m, err := service.Open(service.Config{
		Dir:            *dir,
		Budget:         *budget,
		DefaultWorkers: *workers,
		Logf:           log.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		m.Close()
		return err
	}
	// The "listening on" line is machine-read (scripts/check.sh parses
	// the bound address out of it when -listen uses port 0).
	log.Printf("vwcampaignd: listening on %s (budget %d slots, %d cpus)",
		ln.Addr(), m.Budget(), runtime.GOMAXPROCS(0))

	srv := newServer(service.NewHandler(m))
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		m.Close()
		return err
	case <-ctx.Done():
	}

	log.Printf("vwcampaignd: shutting down (running campaigns stay resumable)")
	// Close the manager first: it interrupts executors and ends record
	// streams, letting Shutdown drain quickly.
	m.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return srv.Close()
	}
	return nil
}
