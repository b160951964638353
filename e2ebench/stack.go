package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/serve"
)

// modelSource is the model every workload serves: cmd/snnserve's
// default (-dataset mnist -scale tiny) with its weight cache directory,
// relative to the repository root.
const (
	modelDataset = "mnist"
	modelCache   = "models"
)

// modelConfig is what cmd/snnserve's buildEngine derives from the
// dataset build: the converted network and the run configuration.
type modelConfig struct {
	params experiments.Params
	setup  *experiments.Setup
	run    core.RunConfig
}

func loadModel() (modelConfig, error) {
	p, err := experiments.ParamsFor(modelDataset, experiments.Tiny)
	if err != nil {
		return modelConfig{}, err
	}
	s, err := experiments.Prepare(p, modelCache, nil)
	if err != nil {
		return modelConfig{}, err
	}
	return modelConfig{params: p, setup: s, run: core.RunConfig{EarlyFire: true, EFStart: p.EFStart()}}, nil
}

func (mc modelConfig) newModel() (*core.Model, error) {
	return core.NewModel(mc.setup.Conv.Net, mc.params.T, mc.params.TauInit, mc.params.TdInit)
}

// runConfig is the per-engine run configuration snnserve uses: early
// exit on for the event engine only.
func (mc modelConfig) runConfig(kind core.EngineKind) core.RunConfig {
	run := mc.run
	run.EarlyExit = kind == core.EngineEvent
	return run
}

// stack is one in-process serving deployment: registries on loopback
// listeners, optionally behind a gateway.
type stack struct {
	regs    []*serve.Registry
	gw      *gateway.Gateway
	servers []*http.Server // backends, then the gateway; close stops them in reverse
	pools   []*core.Pool
	served  chan error
	url     string // where clients send
	probe   []string
}

// buildStack assembles the workload's deployment the way cmd/snnserve
// and cmd/snngate do, and returns once every /readyz answers 200. tr
// non-nil installs the tracing wrappers.
func buildStack(w *workload, tr *tracer) (*stack, error) {
	mc, err := loadModel()
	if err != nil {
		return nil, err
	}
	st := &stack{served: make(chan error, w.backends+1)}
	var backendURLs []string
	for i := 0; i < w.backends; i++ {
		u, err := st.addBackend(w, mc, tr)
		if err != nil {
			st.close()
			return nil, err
		}
		backendURLs = append(backendURLs, u)
	}
	st.url = backendURLs[0]
	if w.gateway {
		// Hedging off: on two CPUs a hedge competes with its primary for
		// the same cores, and with it on the one-shot p99s doubled and
		// varied 3× between runs (README.md, "Hedging").
		opt := gateway.Options{Backends: backendURLs, DisableHedge: true}
		if tr != nil {
			// Built like the gateway's default transport.
			opt.Transport = &tracedTransport{tr: tr, name: "attempt", fromContext: true, base: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
				DisableCompression:  true,
			}}
		}
		gw, err := gateway.New(opt)
		if err != nil {
			st.close()
			return nil, err
		}
		st.gw = gw
		var h http.Handler = gw.Handler()
		if tr != nil {
			h = traceHandler(h, tr, "gateway")
		}
		u, err := st.listen(h)
		if err != nil {
			st.close()
			return nil, err
		}
		st.url = u
	}
	if err := st.waitReady(30 * time.Second); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// addBackend builds one snnserve-equivalent registry with the default
// flags (-batch 16 -wait 2ms, one batch worker over a GOMAXPROCS pool)
// and the workload's engine, serves it, and warms it in the background
// as snnserve does: /readyz answers 200 once the warm-up finishes.
func (st *stack) addBackend(w *workload, mc modelConfig, tr *tracer) (string, error) {
	m, err := mc.newModel()
	if err != nil {
		return "", err
	}
	run := mc.runConfig(w.engine)
	var eng serve.Engine
	var ttfs *serve.TTFSEngine
	switch w.engine {
	case core.EngineEvent:
		eng = &serve.EventEngine{Model: m, Run: run}
	case core.EngineQuant:
		eng = &serve.QuantEngine{Model: m, Run: run}
	default:
		ttfs = &serve.TTFSEngine{Model: m, Run: run}
		eng = ttfs
	}
	opt := serve.Options{MaxBatch: 16, MaxWait: 2 * time.Millisecond, DefaultMode: w.mode}
	var pool *core.Pool
	if pw := runtime.GOMAXPROCS(0); pw > 1 {
		// snnserve gives every model a pool and one batch worker; only
		// the clocked engine uses the pool.
		opt.Workers = 1
		if ttfs != nil {
			pool = core.NewPool(core.ParallelOpts{Workers: pw})
			st.pools = append(st.pools, pool)
			ttfs.Pool = pool
		}
	}
	served := eng
	if tr != nil {
		if served, err = wrapEngine(eng, tr); err != nil {
			return "", err
		}
	}
	reg := serve.NewRegistry(serve.RegistryOptions{})
	st.regs = append(st.regs, reg)
	srv, err := reg.Add("default", served, opt)
	if err != nil {
		return "", err
	}
	var h http.Handler = reg.Handler()
	if tr != nil {
		h = traceHandler(h, tr, "serve")
	}
	u, err := st.listen(h)
	if err != nil {
		return "", err
	}
	st.probe = append(st.probe, u)
	go func() {
		srv.Warm()
		if ttfs != nil && pool != nil {
			pool.Warm(m, [][]float64{make([]float64, eng.InLen())}, run)
		}
		reg.SetReady(true)
	}()
	return u, nil
}

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.servers = append(st.servers, hs)
	go func() { st.served <- hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// waitReady polls every /readyz (backends, then the gateway) until each
// answers 200.
func (st *stack) waitReady(limit time.Duration) error {
	urls := st.probe
	if st.gw != nil {
		urls = append(urls[:len(urls):len(urls)], st.url)
	}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for _, u := range urls {
		for {
			resp, err := client.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s/readyz not ready within %s", u, limit)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close drains and stops everything buildStack started and waits for
// the listeners' goroutines to return.
func (st *stack) close() {
	if st.gw != nil {
		st.gw.BeginDrain()
	}
	for _, r := range st.regs {
		r.BeginDrain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.servers) - 1; i >= 0; i-- {
		_ = st.servers[i].Shutdown(ctx)
	}
	for _, r := range st.regs {
		r.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, p := range st.pools {
		p.Close()
	}
	for range st.servers {
		<-st.served
	}
}

// ledger is the accounting state checked after every phase.
type ledger struct {
	reg []serve.ModelSnapshot
	gw  gateway.Snapshot
}

func (st *stack) snapshot() ledger {
	var l ledger
	for _, r := range st.regs {
		l.reg = append(l.reg, r.Snapshot().Models["default"])
	}
	if st.gw != nil {
		l.gw = st.gw.Snapshot()
	}
	return l
}

// checkLedgers verifies accepted = completed + expired + failed on every
// registry and accepted = completed + failed + shed on the gateway. A
// request the gateway already answered can still be settling on a
// backend (a hedge loser), so the check waits up to a second for the
// counters to come to rest before failing.
func (st *stack) checkLedgers() error {
	deadline := time.Now().Add(time.Second)
	for {
		err := st.snapshot().check()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (l ledger) check() error {
	for i, s := range l.reg {
		if s.Accepted != s.Completed+s.Expired+s.Failed {
			return fmt.Errorf("backend %d ledger: accepted %d != completed %d + expired %d + failed %d",
				i, s.Accepted, s.Completed, s.Expired, s.Failed)
		}
	}
	if g := l.gw; g.Accepted != g.Completed+g.Failed+g.Shed {
		return fmt.Errorf("gateway ledger: accepted %d != completed %d + failed %d + shed %d",
			g.Accepted, g.Completed, g.Failed, g.Shed)
	}
	return nil
}
