// Command snnserve exposes spiking models over HTTP (internal/serve).
// Requests queue per model; an idle batch worker takes the first one at
// once, together with whatever else has queued meanwhile (up to
// -batch), and runs them as one engine call. With -parallel > 1 the
// call spreads its samples across cores, one sample per core, so a
// lone request is never held back and a burst uses every core.
//
// One process hosts any number of named models (serve.Registry), each
// with its own queue, workers, and metrics. -model is repeatable and
// takes name=source[:scheme[:steps]] where source is a .t2f file from
// cmd/snnc or dataset/scale for an on-the-spot build (DNN weights are
// cached under -cache, so repeat startups are fast):
//
//	snnserve -model ttfs=mnist/tiny -model rate=mnist/tiny:rate:100
//	snnserve -model prod=cifar10.t2f -model canary=cifar10.t2f
//
// The first model is the default for the back-compat /v1/infer route.
// A bare path or the -dataset flags still work and name the single
// model "default":
//
//	snnserve -model cifar10.t2f -addr :8080
//	snnserve -dataset mnist -scale tiny -cache models -addr :8080
//	snnserve -dataset mnist -scale tiny -scheme rate -steps 100
//
// -engine event serves ttfs models on the event-driven engine with
// early exit: single-sample requests bypass the batch queue (the
// "latency" serving mode, pick it per request with "mode":"latency" or
// server-wide with -mode latency) and stop integrating the output
// window as soon as the winner is provably undominated. Predictions are
// identical to the clocked engine's; latency_steps may shrink and the
// response carries early_exit/events_saved.
//
// -engine quant serves ttfs models on the fixed-point int8 engine:
// weights are quantized once into int8 SoA scatter plans and
// integration runs on int32 accumulators, trading ≤1% fixture argmax
// disagreement for a ~2.7× single-sample speedup over the clocked
// sweep. /metrics reports the active kernel in the "engine" field.
//
// Admission control sits in front of every model: -rate/-burst run a
// per-client token bucket (keyed by -client-header, falling back to
// remote address), and deadline-headroom shedding (disable with
// -no-shed) rejects requests whose deadline is below the target
// model's rolling p99 batch latency with 429 + Retry-After before they
// occupy a queue slot. -max-timeout clamps client deadlines so the
// shedder cannot be dodged with huge or absent timeout_ms values.
//
// Endpoints: POST /v1/models/{name}/infer, POST /v1/infer,
// GET /v1/models, GET /healthz, GET /metrics (per-model snapshots
// nested in one document). SIGINT/SIGTERM drain every model before
// exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/snn"
)

// modelSpec is one parsed -model flag.
type modelSpec struct {
	name   string
	source string // .t2f path or dataset/scale
	scheme string // ttfs|event|quant|rate|phase|burst
	steps  int    // simulation horizon for non-ttfs schemes
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	var modelFlags []string
	flag.Func("model", "model to serve: name=source[:scheme[:steps]] with source a .t2f file or dataset/scale (repeatable); a bare path serves that .t2f as \"default\"", func(v string) error {
		modelFlags = append(modelFlags, v)
		return nil
	})
	ds := flag.String("dataset", "mnist", "build the default model for this synthetic dataset when no -model is given: mnist|cifar10|cifar100")
	scale := flag.String("scale", "tiny", "dataset scale: tiny|small|full")
	cache := flag.String("cache", "models", "weight cache directory for dataset builds")
	scheme := flag.String("scheme", "ttfs", "default serving engine: ttfs|event|quant|rate|phase|burst")
	steps := flag.Int("steps", 100, "default simulation horizon for non-ttfs schemes")
	engine := flag.String("engine", "clock", "execution engine for ttfs models: clock (clocked reference), event (event-driven with early exit — the latency-mode engine), or quant (fixed-point int8 — the per-core throughput engine)")
	mode := flag.String("mode", "", "default serving mode: latency (direct single-sample path)|throughput (batching queue); empty routes automatically per request")
	ef := flag.Bool("ef", true, "early firing (ttfs engine)")
	useGO := flag.Bool("go", false, "apply gradient-based kernel optimization at startup (slower start, better accuracy; dataset builds only)")

	batch := flag.Int("batch", 16, "max queued samples one batch worker takes at once (per model)")
	queue := flag.Int("queue", 0, "request queue bound per model (0 = 8x batch); overflow returns 429")
	workers := flag.Int("workers", 0, "batch executor goroutines per model (0 = GOMAXPROCS; forced to 1 when -parallel engages)")
	parallel := flag.Int("parallel", 0, "data-parallel workers per batch inference (0 = GOMAXPROCS, 1 = sequential)")
	sharePool := flag.Bool("share-pool", false, "share one data-parallel pool across all models instead of one pool per model")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-supplied deadlines; 0 lets clients pick any deadline (or none) and defeats deadline shedding")

	rate := flag.Float64("rate", 0, "per-client admission rate in requests/s (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-client burst allowance (0 = rate rounded up)")
	clientHeader := flag.String("client-header", "X-Client-ID", "request header identifying a client for rate limiting (fallback: remote address)")
	noShed := flag.Bool("no-shed", false, "disable deadline-headroom shedding (429 when a request's deadline is below the model's rolling p99 batch latency)")

	fSeed := flag.Uint64("fault-seed", 1, "fault injection seed (applies to every model)")
	fDrop := flag.Float64("fault-drop", 0, "per-spike drop probability")
	fJitter := flag.Int("fault-jitter", 0, "max TTFS spike jitter in steps")
	fStuck := flag.Float64("fault-stuck", 0, "stuck-silent neuron fraction")
	fNoise := flag.Float64("fault-noise", 0, "threshold noise amplitude")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof debug endpoints on this address (e.g. 127.0.0.1:6060; empty = disabled)")
	flag.Parse()
	startPprof("snnserve", *pprofAddr)

	specs, err := parseModelSpecs(modelFlags, *ds, *scale, *scheme, *steps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snnserve: %v\n", err)
		os.Exit(1)
	}
	switch *engine {
	case "clock":
	case "event", "quant":
		// -engine event/quant upgrades every ttfs model to that engine;
		// explicitly event/quant/rate/phase/burst specs are untouched.
		for i := range specs {
			if specs[i].scheme == "ttfs" {
				specs[i].scheme = *engine
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "snnserve: unknown engine %q (want clock, event, or quant)\n", *engine)
		os.Exit(1)
	}
	switch *mode {
	case "", serve.ModeLatency, serve.ModeThroughput:
	default:
		fmt.Fprintf(os.Stderr, "snnserve: unknown mode %q (want %s or %s)\n", *mode, serve.ModeLatency, serve.ModeThroughput)
		os.Exit(1)
	}

	// Data-parallel batch execution: a pool shards each batch's samples
	// across cores inside one engine call, so each scheduler needs only
	// one batch worker — more would oversubscribe the cores the pool
	// already owns.
	pw := *parallel
	if pw <= 0 {
		pw = runtime.GOMAXPROCS(0)
	}
	var shared *core.Pool
	if pw > 1 && *sharePool {
		shared = core.NewPool(core.ParallelOpts{Workers: pw})
		defer shared.Close()
	}

	// BuildEngine enables POST /v1/models/{name}/swap: a swap request
	// names a source (and optionally scheme/steps) and gets an engine
	// built with this process's fault/cache/EF configuration. Swapped-in
	// engines join the shared data-parallel pool when -share-pool is on;
	// with per-model pools the replacement runs sequentially (per-model
	// pools live exactly as long as process startup engines, and a
	// swapped engine has no pool owner to close one).
	ec := engineConfig{
		cache: *cache, ef: *ef, useGO: *useGO,
		fSeed: *fSeed, fDrop: *fDrop, fJitter: *fJitter, fStuck: *fStuck, fNoise: *fNoise,
	}
	reg := serve.NewRegistry(serve.RegistryOptions{
		RatePerSec:      *rate,
		Burst:           *burst,
		ClientHeader:    *clientHeader,
		DisableShedding: *noShed,
		BuildEngine: func(model string, req serve.SwapRequest) (serve.Engine, error) {
			spec := modelSpec{name: model, source: req.Source, scheme: req.Scheme, steps: req.Steps}
			if spec.scheme == "" {
				spec.scheme = "ttfs"
			}
			if err := checkScheme(spec.scheme); err != nil {
				return nil, err
			}
			if spec.steps <= 0 {
				spec.steps = *steps
			}
			eng, _, err := buildEngine(ec, spec, shared)
			return eng, err
		},
	})
	opt := serve.Options{
		MaxBatch:       *batch,
		QueueSize:      *queue,
		Workers:        *workers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DefaultMode:    *mode,
	}
	var descs []string
	var warmups []func()
	for _, spec := range specs {
		pool := shared
		if pw > 1 && pool == nil {
			pool = core.NewPool(core.ParallelOpts{Workers: pw})
			defer pool.Close()
		}
		eng, desc, err := buildEngine(ec, spec, pool)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snnserve: model %s: %v\n", spec.name, err)
			os.Exit(1)
		}
		mopt := opt
		if pool != nil && mopt.Workers == 0 {
			mopt.Workers = 1
		}
		srv, err := reg.Add(spec.name, eng, mopt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snnserve: model %s: %v\n", spec.name, err)
			os.Exit(1)
		}

		// Defer warmup until after the listener is up: the first
		// inference builds the model's scatter plan and sizes a pooled
		// scratch, which would otherwise land on the first user
		// request's latency. /readyz answers 503 until every model (and
		// pool arena) is warm, so a gateway or orchestrator never routes
		// to a replica still paying that cost — while /healthz is live
		// the moment the listener binds.
		name, e, p := spec.name, eng, pool
		warmups = append(warmups, func() {
			warm := time.Now()
			srv.Warm()
			if te, ok := e.(*serve.TTFSEngine); ok && p != nil {
				p.Warm(te.Model, [][]float64{make([]float64, e.InLen())}, te.Run)
			}
			fmt.Fprintf(os.Stderr, "snnserve: model %s (%s) warmed in %s\n",
				name, desc, time.Since(warm).Round(time.Millisecond))
		})
		descs = append(descs, fmt.Sprintf("%s=%s", spec.name, desc))
	}
	go func() {
		for _, warm := range warmups {
			warm()
		}
		reg.SetReady(true)
		fmt.Fprintln(os.Stderr, "snnserve: ready")
	}()

	hs := &http.Server{Addr: *addr, Handler: reg.Handler()}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "snnserve: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Unblock open streaming sessions first: Shutdown waits for
		// active handlers, and a stream handler only returns once its
		// server signals drain.
		reg.BeginDrain()
		err := hs.Shutdown(ctx) // stop accepting, finish in-flight HTTP
		reg.Close()             // drain every model's batch queue
		done <- err
	}()

	fmt.Fprintf(os.Stderr, "snnserve: serving %d model(s) on %s (batch<=%d, workers %d, parallel %d, rate %s/client, shed %v)\n",
		len(specs), *addr, opt.MaxBatch, opt.Workers, pw, rateDesc(*rate), !*noShed)
	for _, d := range descs {
		fmt.Fprintf(os.Stderr, "snnserve:   %s\n", d)
	}
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "snnserve: %v\n", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintf(os.Stderr, "snnserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	snap := reg.Snapshot()
	for _, name := range reg.Names() {
		ms := snap.Models[name]
		fmt.Fprintf(os.Stderr, "snnserve: %s done (%d completed, %d rejected, %d shed, mean batch %.2f, parallel chunks %d)\n",
			name, ms.Completed, ms.Rejected, ms.DeadlineShed, ms.MeanBatchSize, ms.ParallelChunks)
	}
	if snap.RateLimited > 0 {
		fmt.Fprintf(os.Stderr, "snnserve: %d request(s) rate-limited\n", snap.RateLimited)
	}
}

func rateDesc(rate float64) string {
	if rate <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.3g req/s", rate)
}

// parseModelSpecs turns the -model flags into model specs, falling back
// to a single "default" model built from the -dataset/-scheme flags
// when none were given.
func parseModelSpecs(raw []string, ds, scale, scheme string, steps int) ([]modelSpec, error) {
	if len(raw) == 0 {
		return []modelSpec{{name: "default", source: ds + "/" + scale, scheme: scheme, steps: steps}}, nil
	}
	specs := make([]modelSpec, 0, len(raw))
	for _, v := range raw {
		spec, err := parseModelSpec(v, scheme, steps)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// parseModelSpec parses name=source[:scheme[:steps]]; a value without
// '=' is the legacy single-model form, a bare .t2f path named
// "default".
func parseModelSpec(v, defScheme string, defSteps int) (modelSpec, error) {
	spec := modelSpec{name: "default", scheme: "ttfs", steps: defSteps}
	src := v
	if name, rest, ok := strings.Cut(v, "="); ok {
		if name == "" {
			return spec, fmt.Errorf("empty model name in %q", v)
		}
		spec.name = name
		spec.scheme = defScheme
		src = rest
	}
	parts := strings.Split(src, ":")
	spec.source = parts[0]
	if spec.source == "" {
		return spec, fmt.Errorf("empty model source in %q", v)
	}
	if len(parts) > 1 && parts[1] != "" {
		spec.scheme = parts[1]
	}
	if len(parts) > 2 {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n <= 0 {
			return spec, fmt.Errorf("bad steps in %q", v)
		}
		spec.steps = n
	}
	if len(parts) > 3 {
		return spec, fmt.Errorf("too many fields in %q (want name=source[:scheme[:steps]])", v)
	}
	if err := checkScheme(spec.scheme); err != nil {
		return spec, fmt.Errorf("%w in %q", err, v)
	}
	return spec, nil
}

// engineConfig is the process-wide part of every engine build.
type engineConfig struct {
	cache                 string
	ef, useGO             bool
	fSeed                 uint64
	fDrop, fNoise, fStuck float64
	fJitter               int
}

// buildEngine assembles one model's serving engine: model (loaded or
// built), scheme, run configuration, optional fault injector, and the
// data-parallel pool (nil = sequential; used by the clocked and coding
// scheme engines).
func buildEngine(c engineConfig, spec modelSpec, pool *core.Pool) (serve.Engine, string, error) {
	var inj *fault.Injector
	var err error
	if c.fDrop > 0 || c.fJitter > 0 || c.fStuck > 0 || c.fNoise > 0 {
		inj, err = fault.New(fault.Config{
			Seed: c.fSeed, Drop: c.fDrop, Jitter: c.fJitter,
			StuckSilent: c.fStuck, ThresholdNoise: c.fNoise,
		})
		if err != nil {
			return nil, "", err
		}
	}

	kind, isT2FSNN := engineKinds[spec.scheme]
	var sch coding.Scheme
	if !isT2FSNN {
		if sch, err = schemeFor(spec.scheme); err != nil {
			return nil, "", err
		}
	}

	// Resolve the model: a compiled .t2f keeps the T/2 early-firing
	// default, a dataset build uses the dataset's EFStart. Coding schemes
	// need only the network, so a dataset build skips the T2FSNN model.
	var (
		net                 *snn.Net
		m                   *core.Model
		run                 = core.RunConfig{EarlyFire: c.ef}
		label, sep, details = "t2fsnn", " ", ""
	)
	if strings.HasSuffix(spec.source, ".t2f") {
		f, err := os.Open(spec.source)
		if err != nil {
			return nil, "", err
		}
		m, err = core.LoadModel(f)
		f.Close()
		if err != nil {
			return nil, "", err
		}
		net = m.Net
	} else {
		ds, scaleName, ok := strings.Cut(spec.source, "/")
		if !ok {
			return nil, "", fmt.Errorf("source %q is neither a .t2f path nor dataset/scale", spec.source)
		}
		sc, err := experiments.ParseScale(scaleName)
		if err != nil {
			return nil, "", err
		}
		p, err := experiments.ParamsFor(ds, sc)
		if err != nil {
			return nil, "", err
		}
		s, err := experiments.Prepare(p, c.cache, os.Stderr)
		if err != nil {
			return nil, "", err
		}
		net = s.Conv.Net
		if isT2FSNN {
			if c.useGO {
				_, m, _, err = experiments.BuildModels(s)
			} else {
				m, err = core.NewModel(s.Conv.Net, p.T, p.TauInit, p.TdInit)
			}
			if err != nil {
				return nil, "", err
			}
		}
		run.EFStart = p.EFStart()
		label, sep, details = "T2FSNN", " over ", fmt.Sprintf(", DNN acc %.3f", s.DNNAcc)
		if c.useGO {
			label += "+GO"
		}
		if c.ef {
			label += "+EF"
		}
	}

	if !isT2FSNN {
		return &serve.SchemeEngine{Net: net, Scheme: sch, Steps: spec.steps, Faults: inj, Pool: pool},
			fmt.Sprintf("%s over %s (%d steps)", sch.Name(), spec.source, spec.steps), nil
	}
	desc := func(variant, tag string) string {
		return fmt.Sprintf("%s%s%s%s (T=%d%s%s)", label, variant, sep, spec.source, m.T, tag, details)
	}
	switch kind {
	case core.EngineEvent:
		run.EarlyExit = true
		return &serve.EventEngine{Model: m, Run: run, Faults: inj}, desc("-event", ", early exit"), nil
	case core.EngineQuant:
		return &serve.QuantEngine{Model: m, Run: run, Faults: inj}, desc("-quant", ", int8"), nil
	}
	return &serve.TTFSEngine{Model: m, Run: run, Faults: inj, Pool: pool}, desc("", ""), nil
}

// engineKinds maps the T2FSNN scheme names to their core engine; every
// other valid scheme name is a coding scheme (schemeFor).
var engineKinds = map[string]core.EngineKind{
	"ttfs": core.EngineClocked, "event": core.EngineEvent, "quant": core.EngineQuant,
}

// checkScheme rejects scheme names no engine serves.
func checkScheme(name string) error {
	if _, ok := engineKinds[name]; ok {
		return nil
	}
	_, err := schemeFor(name)
	return err
}

func schemeFor(name string) (coding.Scheme, error) {
	switch name {
	case "rate":
		return coding.Rate{}, nil
	case "phase":
		return coding.Phase{}, nil
	case "burst":
		return coding.Burst{}, nil
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}
