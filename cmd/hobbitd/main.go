// Command hobbitd serves Hobbit measurement campaigns over a versioned
// HTTP API (/v1). The daemon owns a pool of immutable simulated worlds
// and a result cache keyed on the canonical (world, options) pair, so a
// campaign any client already paid for is answered byte-identically
// without sending a single probe. See README.md "Serving" for the
// walkthrough and DESIGN.md §4g for the versioning and determinism
// contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/hobbitscan/hobbit/internal/api"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		log.SetFlags(0)
		log.Fatalf("hobbitd: %v", err)
	}
}

// Connection timeouts. A client that stalls mid-headers or parks an idle
// keep-alive connection is cut off. There is deliberately no
// WriteTimeout (nor ReadTimeout, which would bound the whole request):
// SSE progress streams and wait:true submissions hold their response
// open for as long as a campaign runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the handler in the daemon's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run is the testable entry point: parse flags, bind the listener,
// serve until the context (signals, or the test's cancel) ends, then
// shut down gracefully — drain in-flight requests, cancel campaigns,
// join the runners.
func run(args []string, logw *os.File) error {
	fs := flag.NewFlagSet("hobbitd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8347", "listen address")
		defaultBlocks = fs.Int("default-blocks", 2000, "universe size when a request omits world.blocks")
		defaultScale  = fs.Float64("default-scale", 0.25, "aggregate scale when a request omits world.scale")
		maxBlocks     = fs.Int("max-blocks", 100000, "per-request universe ceiling")
		maxCampaigns  = fs.Int("max-campaigns", 0, "concurrent campaign bound (0 = GOMAXPROCS)")
		maxWorlds     = fs.Int("max-worlds", 4, "worlds kept warm")
		maxResults    = fs.Int("max-results", 256, "cached results kept")
		maxSessions   = fs.Int("max-sessions", 1024, "sessions retained")
		maxMonitor    = fs.Int("max-monitor-epochs", 64, "ceiling on monitor_epochs per submission")
		runTimeout    = fs.Duration("run-timeout", 10*time.Minute, "default per-campaign deadline")
		maxTimeout    = fs.Duration("max-timeout", 30*time.Minute, "ceiling on requested timeout_ms")
		progressEvery = fs.Int("progress-every", 0, "thin the SSE progress stream to every Nth block, plus each stage's first and last (0 = all); bounds SSE volume, not memory")
	)
	fs.SetOutput(logw)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(logw, "hobbitd: ", log.LstdFlags)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := newServer(serverConfig{
		DefaultWorld:     api.WorldSpecV1{Blocks: *defaultBlocks, Scale: *defaultScale},
		MaxBlocks:        *maxBlocks,
		MaxCampaigns:     *maxCampaigns,
		MaxWorlds:        *maxWorlds,
		MaxResults:       *maxResults,
		MaxSessions:      *maxSessions,
		MaxMonitorEpochs: *maxMonitor,
		RunTimeout:       *runTimeout,
		MaxTimeout:       *maxTimeout,
		ProgressEvery: func() int {
			if *progressEvery < 0 {
				return 0
			}
			return *progressEvery
		}(),
		Now: time.Now,
	})
	defer srv.Close()

	// Bind synchronously so "address in use" is a startup error, not a
	// lost goroutine log line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	hs := newHTTPServer(srv)

	var wg sync.WaitGroup
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	logger.Printf("serving /%s on http://%s", api.Version, ln.Addr())

	var serveErr error
	select {
	case <-ctx.Done():
		logger.Printf("signal received; draining")
	case serveErr = <-errc:
	}

	// Graceful shutdown: stop accepting, give in-flight requests a
	// bounded window, then force-close. Campaigns are cancelled by
	// srv.Close (deferred) via the server context.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		_ = hs.Close()
	}
	wg.Wait()
	return serveErr
}
