package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RegistryOptions configures the multi-model registry's admission
// layer. The zero value disables rate limiting and keeps deadline
// shedding on.
type RegistryOptions struct {
	// RatePerSec is the per-client token refill rate; 0 disables rate
	// limiting entirely.
	RatePerSec float64
	// Burst is the token bucket capacity (default: RatePerSec rounded
	// up, minimum 1) — how far a client can run ahead of its rate.
	Burst int
	// ClientHeader names the request header identifying a client for
	// rate limiting (default "X-Client-ID"); requests without it are
	// keyed by remote address.
	ClientHeader string
	// DisableShedding turns off deadline-headroom admission: by default
	// a request whose deadline is tighter than the target model's
	// rolling p99 batch latency is rejected with 429 before it can
	// occupy a queue slot — it would expire before any batch could
	// serve it, so enqueueing it only steals capacity from live work.
	DisableShedding bool
	// BuildEngine, when set, enables the POST /v1/models/{name}/swap
	// admin endpoint: it turns a SwapRequest into a ready-to-serve
	// Engine (loading or training happens here, outside any lock). Nil
	// leaves the endpoint answering 501.
	BuildEngine func(model string, req SwapRequest) (Engine, error)
}

// Registry hosts several named models in one HTTP process, each with
// its own Server (own queue, workers, metrics, drain), behind a shared
// admission layer:
//
//	POST /v1/models/{name}/infer  — infer against one model
//	POST /v1/models/{name}/stream — frame-session streaming inference
//	POST /v1/models/{name}/swap   — atomically replace the model's engine
//	POST /v1/infer                — back-compat route to the default model
//	POST /v1/stream               — streaming against the default model
//	GET  /v1/models              — list hosted models
//	GET  /metrics                — per-model snapshots nested in one doc
//	GET  /healthz                — liveness: 200 until Close starts
//	GET  /readyz                 — readiness: 200 only once warm (SetReady)
//
// Create with NewRegistry, attach models with Add, serve Handler, stop
// with Close (drains every model).
type Registry struct {
	opt     RegistryOptions
	limiter *rateLimiter // nil when rate limiting is disabled
	start   time.Time

	rateLimited atomic.Uint64
	// ready gates /readyz only: the owner sets it (SetReady) once every
	// model is warm, so a routing tier never sends traffic to a cold
	// process. Inference itself is not gated — a direct client may
	// accept cold-start latency.
	ready atomic.Bool

	mu          sync.RWMutex
	models      map[string]*registryModel
	order       []string // Add order; order[0] is the default fallback
	defaultName string
	closed      bool

	// snapMu guards snapModels, the reusable sorted-model scratch for
	// Snapshot: scrapes under load shouldn't churn allocations against
	// the request path. (The Models map itself escapes to the caller and
	// cannot be reused — it is size-hinted instead.)
	snapMu     sync.Mutex
	snapModels []*registryModel
}

type registryModel struct {
	name string
	// srv is the model's live server. Swap replaces it atomically;
	// request handlers load it exactly once per request, so every
	// request runs wholly against one engine — never a half-swapped
	// view.
	srv  atomic.Pointer[Server]
	shed atomic.Uint64 // deadline-headroom 429s for this model

	// swapMu serializes Swap calls for this model (cutovers are rare;
	// overlapping ones would race the retired-counter fold).
	swapMu sync.Mutex
	swaps  atomic.Uint64

	// retired accumulates the final counters (Snapshot.addCounters) of
	// servers drained by Swap, so per-model accounting (and its
	// identity, accepted = completed + expired + failed) survives any
	// number of cutovers; window-based statistics intentionally restart
	// with the new engine. draining is the server a Swap has cut away
	// but not yet drained: Snapshot keeps counting it until retire folds
	// its final totals, so metrics never go backwards mid-drain. Both
	// fields share retiredMu — a server is always visible as exactly one
	// of live, draining, or retired, never zero or two.
	retiredMu sync.Mutex
	retired   Snapshot
	draining  *Server
}

func (m *registryModel) server() *Server { return m.srv.Load() }

// retire folds a drained server's final counters into the model's
// running totals and clears the draining slot in one critical
// section, so no Snapshot can count the server twice or miss it.
// Call only after that server's Close returned: every request is
// settled then, so the fold moves a self-consistent set.
func (m *registryModel) retire(s Snapshot) {
	m.retiredMu.Lock()
	m.retired.addCounters(s)
	m.draining = nil
	m.retiredMu.Unlock()
}

// NewRegistry creates an empty registry. Add at least one model before
// serving; the first Add becomes the default route target unless
// SetDefault overrides it.
func NewRegistry(opt RegistryOptions) *Registry {
	g := &Registry{
		opt:    opt,
		start:  time.Now(),
		models: make(map[string]*registryModel),
	}
	if opt.RatePerSec > 0 {
		burst := opt.Burst
		if burst <= 0 {
			burst = int(opt.RatePerSec + 0.999)
		}
		g.limiter = newRateLimiter(opt.RatePerSec, burst)
	}
	if g.opt.ClientHeader == "" {
		g.opt.ClientHeader = "X-Client-ID"
	}
	return g
}

// Add starts a Server for eng under name and registers it. The first
// model added becomes the default for /v1/infer.
func (g *Registry) Add(name string, eng Engine, opt Options) (*Server, error) {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return nil, fmt.Errorf("serve: invalid model name %q", name)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	if _, ok := g.models[name]; ok {
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	srv := New(eng, opt)
	m := &registryModel{name: name}
	m.srv.Store(srv)
	g.models[name] = m
	g.order = append(g.order, name)
	if g.defaultName == "" {
		g.defaultName = name
	}
	return srv, nil
}

// SetDefault routes /v1/infer to name.
func (g *Registry) SetDefault(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.models[name]; !ok {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	g.defaultName = name
	return nil
}

// Get returns the named model's Server (nil if unknown) — the handle
// for per-model drain or direct Infer.
func (g *Registry) Get(name string) *Server {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if m, ok := g.models[name]; ok {
		return m.server()
	}
	return nil
}

// Names returns the registered model names in Add order.
func (g *Registry) Names() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]string(nil), g.order...)
}

// SetReady flips the /readyz answer. Callers warm each model with
// Server.Warm and then set it; it also takes the process out of a
// routing pool without closing it.
func (g *Registry) SetReady(v bool) { g.ready.Store(v) }

// Ready reports whether the registry is warmed up and accepting
// traffic — the /readyz contract a routing tier probes.
func (g *Registry) Ready() bool { return g.ready.Load() && !g.Closed() }

// Close drains every model (each Server finishes its queued work) and
// marks the registry closed. Safe to call more than once.
func (g *Registry) Close() {
	g.mu.Lock()
	g.closed = true
	models := make([]*registryModel, 0, len(g.models))
	for _, m := range g.models {
		models = append(models, m)
	}
	g.mu.Unlock()
	for _, m := range models {
		m.server().Close()
	}
}

// Closed reports whether Close has started.
func (g *Registry) Closed() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.closed
}

// Handler returns the registry's HTTP API.
func (g *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models/{name}/infer", g.handleModelInfer)
	mux.HandleFunc("POST /v1/models/{name}/stream", g.handleModelStream)
	mux.HandleFunc("POST /v1/models/{name}/swap", g.handleSwap)
	mux.HandleFunc("GET /v1/models", g.handleList)
	mux.HandleFunc("POST /v1/infer", g.handleDefaultInfer)
	mux.HandleFunc("POST /v1/stream", g.handleDefaultStream)
	mux.HandleFunc("/healthz", g.handleHealth)
	mux.HandleFunc("/readyz", g.handleReady)
	mux.HandleFunc("/metrics", g.handleMetrics)
	return mux
}

func (g *Registry) lookup(name string) *registryModel {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.models[name]
}

func (g *Registry) handleModelInfer(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m := g.lookup(name)
	if m == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return
	}
	g.serveModel(w, r, m)
}

func (g *Registry) handleDefaultInfer(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	m := g.models[g.defaultName]
	g.mu.RUnlock()
	if m == nil {
		writeError(w, http.StatusNotFound, "no models registered")
		return
	}
	g.serveModel(w, r, m)
}

// serveModel is the admission-controlled inference path: per-client
// rate limit, then body decode, then deadline-headroom shedding, then
// the model's own queue.
func (g *Registry) serveModel(w http.ResponseWriter, r *http.Request, m *registryModel) {
	srv := m.server()
	if g.limiter != nil {
		if ok, retry := g.limiter.allow(g.clientKey(r)); !ok {
			g.rateLimited.Add(1)
			writeRetryAfter(w, retry)
			writeError(w, http.StatusTooManyRequests, "client rate limit exceeded")
			return
		}
	}
	req, ok := decodeInferRequest(w, r, srv)
	if !ok {
		return
	}
	defer putInferReq(req)
	// Deadline-headroom shedding: a deadline tighter than the model's
	// rolling p99 batch latency cannot be met even if the request were
	// dispatched immediately, so reject before it occupies a queue slot
	// and a batch seat that live requests need. Requests without a
	// deadline (possible only when MaxTimeout is unset) always pass.
	// Requests taking the direct single-sample path are exempt: they
	// never hold a queue slot and the batch p99 says nothing about
	// their service time.
	if !g.opt.DisableShedding && !srv.latencyRoute(req.mode, req.timeoutMs) {
		if timeout := srv.inferTimeout(req.timeoutMs); timeout > 0 {
			if p99 := srv.Metrics().BatchLatencyP99(); p99 > 0 && timeout < p99 {
				m.shed.Add(1)
				writeRetryAfter(w, p99)
				writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("deadline %s below model p99 batch latency %s",
						timeout.Round(time.Millisecond), p99.Round(time.Millisecond)))
				return
			}
		}
	}
	// A request can land on a server in the instant Swap retires it:
	// the queue is already closed but the model is alive on its
	// replacement. Chasing the pointer once makes the cutover invisible
	// to clients; a second ErrClosed means the registry really is
	// shutting down and 503 is the honest answer.
	for {
		err := serveInfer(w, r, srv, req)
		if !errors.Is(err, ErrClosed) {
			return
		}
		if cur := m.server(); cur != srv {
			srv = cur
			continue
		}
		writeInferError(w, err)
		return
	}
}

func (g *Registry) handleModelStream(w http.ResponseWriter, r *http.Request) {
	// Full duplex before any write — see serveModelStream.
	_ = http.NewResponseController(w).EnableFullDuplex()
	name := r.PathValue("name")
	m := g.lookup(name)
	if m == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return
	}
	g.serveModelStream(w, r, m)
}

func (g *Registry) handleDefaultStream(w http.ResponseWriter, r *http.Request) {
	// Full duplex before any write — see serveModelStream.
	_ = http.NewResponseController(w).EnableFullDuplex()
	g.mu.RLock()
	m := g.models[g.defaultName]
	g.mu.RUnlock()
	if m == nil {
		writeError(w, http.StatusNotFound, "no models registered")
		return
	}
	g.serveModelStream(w, r, m)
}

// serveModelStream admits one streaming session against a model. A
// session costs one rate-limit token regardless of how many frames it
// carries — the limiter protects against connection storms; per-frame
// pressure is bounded by the session's own lockstep (one frame in
// flight at a time). Deadline shedding does not apply: sessions have
// no deadline, and each frame runs the direct single-sample path.
//
// Stream handlers enable full duplex before writing anything, even
// admission errors: the client's chunked request body is still open at
// that point, and without full duplex writeHeader blocks draining it —
// a deadlock against a lockstep client that sends nothing until it
// reads the response.
//
// The reacquire closure makes hot-swaps invisible mid-session: when
// the serving server drains, the session chases the model's pointer to
// the replacement and only reports a terminal drain once the registry
// itself is closing (or the swap hasn't produced a new server).
func (g *Registry) serveModelStream(w http.ResponseWriter, r *http.Request, m *registryModel) {
	if g.limiter != nil {
		if ok, retry := g.limiter.allow(g.clientKey(r)); !ok {
			g.rateLimited.Add(1)
			writeRetryAfter(w, retry)
			writeError(w, http.StatusTooManyRequests, "client rate limit exceeded")
			return
		}
	}
	srv := m.server()
	if srv.Closed() {
		// Chase one swap-cutover before concluding the model is gone,
		// mirroring serveModel.
		if cur := m.server(); cur != srv && !cur.Closed() {
			srv = cur
		} else {
			writeError(w, http.StatusServiceUnavailable, ErrClosed.Error())
			return
		}
	}
	serveStream(w, r, srv, func(cur *Server) *Server {
		if g.Closed() {
			return nil
		}
		if ns := m.server(); ns != cur {
			return ns
		}
		return nil
	})
}

// BeginDrain signals every model's live server to stop admitting new
// work and lets open streaming sessions wind down with a terminal
// drain event, without blocking. Call it before shutting the HTTP
// listener down gracefully: http.Server.Shutdown waits for active
// handlers, and a streaming session only returns once its server
// drains.
func (g *Registry) BeginDrain() {
	g.mu.RLock()
	models := make([]*registryModel, 0, len(g.models))
	for _, m := range g.models {
		models = append(models, m)
	}
	g.mu.RUnlock()
	for _, m := range models {
		m.server().BeginDrain()
	}
}

// clientKey identifies the client for rate limiting: the configured
// header when present, else the remote host (ports vary per
// connection, so they are stripped).
func (g *Registry) clientKey(r *http.Request) string {
	if v := r.Header.Get(g.opt.ClientHeader); v != "" {
		return v
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// ModelInfo is one entry of the GET /v1/models listing.
type ModelInfo struct {
	Name     string `json:"name"`
	Default  bool   `json:"default"`
	InputLen int    `json:"input_len"`
	Classes  int    `json:"classes"`
	MaxBatch int    `json:"max_batch"`
	Closed   bool   `json:"closed"`
}

// ModelList is the GET /v1/models response body.
type ModelList struct {
	Default string      `json:"default"`
	Models  []ModelInfo `json:"models"`
}

func (g *Registry) handleList(w http.ResponseWriter, _ *http.Request) {
	g.mu.RLock()
	list := ModelList{Default: g.defaultName}
	for _, name := range g.order {
		srv := g.models[name].server()
		list.Models = append(list.Models, ModelInfo{
			Name:     name,
			Default:  name == g.defaultName,
			InputLen: srv.eng.InLen(),
			Classes:  srv.eng.Classes(),
			MaxBatch: srv.opt.MaxBatch,
			Closed:   srv.Closed(),
		})
	}
	g.mu.RUnlock()
	writeJSON(w, http.StatusOK, list)
}

// ModelSnapshot nests one model's serving metrics plus the admission
// decisions made on its behalf. Counters span every engine the model
// has run (retired servers' totals are folded in at swap time); the
// latency windows and batch histogram describe the current engine.
type ModelSnapshot struct {
	Snapshot
	// DeadlineShed counts requests rejected before enqueue because
	// their deadline was below the model's rolling p99 batch latency.
	DeadlineShed uint64 `json:"deadline_shed"`
	// Swaps counts completed hot-swaps of this model's engine.
	Swaps uint64 `json:"swaps"`
}

// RegistrySnapshot is the GET /metrics response body: one document,
// per-model snapshots nested by name.
type RegistrySnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	DefaultModel  string  `json:"default_model"`
	// RateLimited counts requests rejected by the per-client token
	// bucket (registry-wide: the limit is per client, not per model).
	RateLimited uint64                   `json:"rate_limited"`
	Models      map[string]ModelSnapshot `json:"models"`
}

// Snapshot captures the registry-level counters and every model's
// metrics.
func (g *Registry) Snapshot() RegistrySnapshot {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	g.mu.RLock()
	snap := RegistrySnapshot{
		UptimeSeconds: time.Since(g.start).Seconds(),
		RateLimited:   g.rateLimited.Load(),
		Models:        make(map[string]ModelSnapshot, len(g.models)),
		DefaultModel:  g.defaultName,
	}
	models := g.snapModels[:0]
	for _, m := range g.models {
		models = append(models, m)
	}
	g.mu.RUnlock()
	sort.Slice(models, func(i, j int) bool { return models[i].name < models[j].name })
	g.snapModels = models
	for _, m := range models {
		// Live, draining, and retired are read in one critical section
		// (mirroring Swap's cutover and retire), so a scrape landing in
		// a drain window counts the retiring server exactly once and
		// per-model counters never go backwards.
		m.retiredMu.Lock()
		s := m.server().Metrics().Snapshot()
		if d := m.draining; d != nil {
			ds := d.Metrics().Snapshot()
			s.addCounters(ds)
			s.StreamActive += ds.StreamActive
		}
		s.addCounters(m.retired)
		m.retiredMu.Unlock()
		if s.Completed > 0 {
			s.SpikesPerSample = float64(s.TotalSpikes) / float64(s.Completed)
		}
		snap.Models[m.name] = ModelSnapshot{
			Snapshot:     s,
			DeadlineShed: m.shed.Load(),
			Swaps:        m.swaps.Load(),
		}
	}
	return snap
}

func (g *Registry) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, g.Snapshot())
}

func (g *Registry) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if g.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closing"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the routing-tier probe: liveness (/healthz) says the
// process is up, readiness says it is warm enough to take traffic
// without serving cold-start latency.
func (g *Registry) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case g.Closed():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closing"})
	case !g.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "warming"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
