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
	"io"
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

// parseFlags binds the command line into the listen address and the
// server configuration. Every flag defaults to serverConfig's own
// default, so -help shows the values the daemon runs with.
func parseFlags(args []string, logw io.Writer) (addr string, cfg serverConfig, err error) {
	def := serverConfig{}.withDefaults()
	fs := flag.NewFlagSet("hobbitd", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", "127.0.0.1:8347", "listen address")
	fs.IntVar(&cfg.DefaultWorld.Blocks, "default-blocks", def.DefaultWorld.Blocks, "universe size when a request omits world.blocks")
	fs.Float64Var(&cfg.DefaultWorld.Scale, "default-scale", def.DefaultWorld.Scale, "aggregate scale when a request omits world.scale")
	fs.IntVar(&cfg.MaxBlocks, "max-blocks", def.MaxBlocks, "per-request universe ceiling")
	fs.IntVar(&cfg.MaxCampaigns, "max-campaigns", def.MaxCampaigns, "concurrent campaign bound (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.MaxWorlds, "max-worlds", def.MaxWorlds, "worlds kept warm")
	fs.IntVar(&cfg.MaxResults, "max-results", def.MaxResults, "cached results kept")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", def.MaxSessions, "sessions retained")
	fs.IntVar(&cfg.MaxMonitorEpochs, "max-monitor-epochs", def.MaxMonitorEpochs, "ceiling on monitor_epochs per submission")
	fs.DurationVar(&cfg.RunTimeout, "run-timeout", def.RunTimeout, "default per-campaign deadline")
	fs.DurationVar(&cfg.MaxTimeout, "max-timeout", def.MaxTimeout, "ceiling on requested timeout_ms")
	fs.IntVar(&cfg.ProgressEvery, "progress-every", def.ProgressEvery, "thin the SSE progress stream to every Nth block, plus each stage's first and last (0 = all); bounds SSE volume, not memory")
	fs.SetOutput(logw)
	err = fs.Parse(args)
	return addr, cfg, err
}

// run is the testable entry point: parse flags, bind the listener,
// serve until the context (signals, or the test's cancel) ends, then
// shut down gracefully — drain in-flight requests, cancel campaigns,
// join the runners.
func run(args []string, logw *os.File) error {
	addr, cfg, err := parseFlags(args, logw)
	if err != nil {
		return err
	}
	logger := log.New(logw, "hobbitd: ", log.LstdFlags)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := newServer(cfg)
	defer srv.Close()

	// Bind synchronously so "address in use" is a startup error, not a
	// lost goroutine log line.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", addr, err)
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
