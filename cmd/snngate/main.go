// Command snngate fronts a fleet of snnserve replicas with a
// fault-tolerant routing gateway (internal/gateway):
//
//	snngate -addr :8090 -backend http://127.0.0.1:8081 -backend http://127.0.0.1:8082
//
// Each backend is probed on /readyz; backends that fail probes or real
// traffic are evicted, re-probed with exponential backoff, and
// readmitted through a half-open trial stage. Inference requests route
// to the least-loaded healthy backend (with consistent-hash affinity
// for clients that send -client-header), retry on another backend when
// one dies mid-request, and hedge a second attempt when the first runs
// past the fleet's rolling p95. POST /v1/models/{name}/swap rolls a
// zero-downtime model hot-swap across the fleet one backend at a time.
//
// Endpoints: POST /v1/infer, POST /v1/models/{name}/infer,
// POST /v1/models/{name}/swap, GET /v1/models, GET /healthz,
// GET /readyz, GET /metrics (fleet accounting + per-backend health).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	var backends []string
	flag.Func("backend", "backend base URL, e.g. http://127.0.0.1:8081 (repeatable)", func(v string) error {
		backends = append(backends, v)
		return nil
	})
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "active health probe period per backend")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "timeout for one health probe")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures (probe or traffic) that evict a backend")
	attempts := flag.Int("attempts", 3, "max distinct backends tried per request (primary + retries/hedges)")
	hedgeDelay := flag.Duration("hedge-delay", 25*time.Millisecond, "hedge trigger delay until the fleet p95 is known")
	noHedge := flag.Bool("no-hedge", false, "disable latency hedging (failure retries remain)")
	poolWait := flag.Duration("pool-wait", time.Second, "max time a request waits for a live backend before 503")
	clientHeader := flag.String("client-header", "X-Client-ID", "request header carrying client identity for backend affinity")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof debug endpoints on this address (e.g. 127.0.0.1:6061; empty = disabled)")
	flag.Parse()
	startPprof("snngate", *pprofAddr)

	g, err := gateway.New(gateway.Options{
		Backends:      backends,
		ClientHeader:  *clientHeader,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailThreshold: *failThreshold,
		MaxAttempts:   *attempts,
		DisableHedge:  *noHedge,
		HedgeDelay:    *hedgeDelay,
		PoolWait:      *poolWait,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "snngate: %v\n", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: g.Handler()}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "snngate: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Cancel open streaming relays first: Shutdown waits for active
		// handlers, and a relay only returns when its session ends
		// (clients get retry events).
		g.BeginDrain()
		err := hs.Shutdown(ctx) // finish in-flight proxied requests
		g.Close()
		done <- err
	}()

	fmt.Fprintf(os.Stderr, "snngate: routing %d backend(s) on %s (probe %s, threshold %d, attempts %d, hedge %v)\n",
		len(backends), *addr, *probeInterval, *failThreshold, *attempts, !*noHedge)
	for _, b := range backends {
		fmt.Fprintf(os.Stderr, "snngate:   %s\n", b)
	}
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "snngate: %v\n", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintf(os.Stderr, "snngate: shutdown: %v\n", err)
		os.Exit(1)
	}
	s := g.Snapshot()
	fmt.Fprintf(os.Stderr, "snngate: done (%d accepted = %d completed + %d failed + %d shed; %d hedges fired, %d won, %d retries, %d evictions)\n",
		s.Accepted, s.Completed, s.Failed, s.Shed, s.HedgesFired, s.HedgesWon, s.Retries, s.EvictionsTotal)
}
