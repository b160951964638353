package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubEngine is a controllable Engine for scheduler tests: entry can be
// observed, execution can be gated, and every batch is recorded.
type stubEngine struct {
	inLen   int
	classes int
	enter   chan struct{} // when non-nil, receives one token per InferBatch entry
	release chan struct{} // when non-nil, InferBatch blocks until a token arrives

	mu         sync.Mutex
	batchSizes []int
	seen       []float64 // input[0] of every sample executed
}

func newStubEngine() *stubEngine { return &stubEngine{inLen: 4, classes: 3} }

func (e *stubEngine) InLen() int   { return e.inLen }
func (e *stubEngine) Classes() int { return e.classes }

func (e *stubEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	if e.enter != nil {
		e.enter <- struct{}{}
	}
	if e.release != nil {
		<-e.release
	}
	e.mu.Lock()
	e.batchSizes = append(e.batchSizes, len(inputs))
	for _, in := range inputs {
		e.seen = append(e.seen, in[0])
	}
	e.mu.Unlock()
	preds := make([]Prediction, len(inputs))
	for i, in := range inputs {
		preds[i] = Prediction{
			Pred:        int(in[0]) % e.classes,
			Latency:     5,
			TotalSpikes: 10,
			Potentials:  []float64{in[0], 0, 0},
		}
	}
	return preds
}

func (e *stubEngine) sawInput(v float64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.seen {
		if s == v {
			return true
		}
	}
	return false
}

func input(v float64) []float64 { return []float64{v, 0, 0, 0} }

// newTestRegistry hosts eng as model "m", the only and so the default
// model of a ready Registry, and serves the registry's Handler — the
// one HTTP surface of the package — on a test server. The test server
// and the registry close at cleanup; tests may close either earlier.
func newTestRegistry(t *testing.T, eng Engine, opt Options) (*Registry, *Server, *httptest.Server) {
	t.Helper()
	g := NewRegistry(RegistryOptions{})
	t.Cleanup(g.Close)
	s, err := g.Add("m", eng, opt)
	if err != nil {
		t.Fatal(err)
	}
	g.SetReady(true)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, s, ts
}

// A worker that frees up must take every request queued meanwhile as
// one engine call, up to MaxBatch.
func TestSchedulerFormsBatches(t *testing.T) {
	eng := newStubEngine()
	eng.enter = make(chan struct{}, 4)
	eng.release = make(chan struct{}, 4)
	s := New(eng, Options{MaxBatch: 8, Workers: 1})
	defer s.Close()

	var wg sync.WaitGroup
	infer := func(v float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Infer(context.Background(), input(v), -1, -1); err != nil {
				t.Errorf("Infer(%v): %v", v, err)
			}
		}()
	}
	// First request occupies the only worker...
	infer(0)
	<-eng.enter
	// ...so the next eight queue up behind it, and the worker takes all
	// of them as one batch once it is free.
	for i := 1; i <= 8; i++ {
		infer(float64(i))
	}
	for deadline := time.Now().Add(5 * time.Second); len(s.queue) != 8; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want 8", len(s.queue))
		}
	}
	eng.release <- struct{}{} // finish batch 1
	eng.release <- struct{}{} // run batch 2
	<-eng.enter
	wg.Wait()

	eng.mu.Lock()
	sizes := append([]int(nil), eng.batchSizes...)
	eng.mu.Unlock()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 8 {
		t.Fatalf("batch sizes = %v, want [1 8]", sizes)
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != 9 || snap.BatchSizeHist[8] != 1 {
		t.Fatalf("metrics: completed %d, hist[8] %d", snap.Completed, snap.BatchSizeHist[8])
	}
}

// A lone request on an idle server runs at once: the worker never holds
// it back waiting for company, however long MaxWait is set.
func TestIdleRequestSkipsMaxWait(t *testing.T) {
	s := New(newStubEngine(), Options{MaxBatch: 16, MaxWait: time.Second, Workers: 1})
	defer s.Close()
	start := time.Now()
	if _, err := s.Infer(context.Background(), input(1), -1, -1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("idle Infer took %v, want well under MaxWait (1s)", d)
	}
}

// A full queue must reject fast with ErrOverloaded, and every accepted
// request must still complete once the engine unblocks.
func TestBackpressure(t *testing.T) {
	eng := newStubEngine()
	eng.release = make(chan struct{})
	s := New(eng, Options{MaxBatch: 1, QueueSize: 2, Workers: 1})

	const n = 10
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Infer(context.Background(), input(float64(i)), -1, -1)
			errs <- err
		}(i)
	}
	// Wait until the scheduler has absorbed all it can (1 in the engine,
	// QueueSize queued), then let everything finish.
	deadline := time.After(5 * time.Second)
	for {
		snap := s.Metrics().Snapshot()
		if snap.Accepted+snap.Rejected == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("requests did not settle: %+v", snap)
		case <-time.After(time.Millisecond):
		}
	}
	close(eng.release)
	wg.Wait()
	close(errs)

	ok, overloaded := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if overloaded == 0 {
		t.Fatal("no request was rejected by the bounded queue")
	}
	if ok+overloaded != n {
		t.Fatalf("ok %d + overloaded %d != %d", ok, overloaded, n)
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != uint64(ok) || snap.Rejected != uint64(overloaded) {
		t.Fatalf("metrics disagree: %+v vs ok=%d overloaded=%d", snap, ok, overloaded)
	}
	s.Close()
}

// A request whose deadline expires while its batch is still queued (or
// executing) must return context.DeadlineExceeded without waiting for
// the batch; a request already expired at dispatch must not cost engine
// time.
func TestDeadlineExpiry(t *testing.T) {
	eng := newStubEngine()
	eng.enter = make(chan struct{}, 4)
	eng.release = make(chan struct{}, 4)
	s := New(eng, Options{MaxBatch: 4, Workers: 1})
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Infer(context.Background(), input(1), -1, -1); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	<-eng.enter // engine now busy; the worker is occupied

	// Expires while queued behind the running batch.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Infer(ctx, input(2), -1, -1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request: err = %v, want DeadlineExceeded", err)
	}

	// Already canceled when its batch reaches the worker: dropped before
	// the engine call.
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Infer(canceled, input(99), -1, -1); !errors.Is(err, context.Canceled) {
			t.Errorf("canceled request: err = %v, want Canceled", err)
		}
	}()

	eng.release <- struct{}{} // finish the blocker
	eng.release <- struct{}{} // run whatever was queued behind it
	eng.release <- struct{}{}
	wg.Wait()
	s.Close()
	if eng.sawInput(99) {
		t.Fatal("engine executed a request that was canceled before dispatch")
	}
	if snap := s.Metrics().Snapshot(); snap.Expired < 2 {
		t.Fatalf("expired = %d, want >= 2", snap.Expired)
	}
}

// Close must drain: every accepted request gets its result, and
// requests submitted after Close fail with ErrClosed.
func TestShutdownDrain(t *testing.T) {
	eng := newStubEngine()
	s := New(eng, Options{MaxBatch: 4, Workers: 2})

	const n = 20
	results := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Infer(context.Background(), input(float64(i)), -1, -1)
			results <- err
		}(i)
	}
	// Wait for every request to be accepted or rejected, then close.
	deadline := time.After(5 * time.Second)
	for {
		snap := s.Metrics().Snapshot()
		if snap.Accepted+snap.Rejected == n {
			break
		}
		select {
		case <-deadline:
			t.Fatal("requests did not settle before Close")
		case <-time.After(time.Millisecond):
		}
	}
	s.Close()
	wg.Wait()
	close(results)

	for err := range results {
		if err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("drained request failed: %v", err)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed+snap.Rejected != n {
		t.Fatalf("completed %d + rejected %d != %d", snap.Completed, snap.Rejected, n)
	}
	if _, err := s.Infer(context.Background(), input(0), -1, -1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Infer: err = %v, want ErrClosed", err)
	}
	if !s.Closed() {
		t.Fatal("Closed() false after Close")
	}
}

func TestInferValidatesInputLength(t *testing.T) {
	s := New(newStubEngine(), Options{})
	defer s.Close()
	if _, err := s.Infer(context.Background(), []float64{1}, -1, -1); err == nil {
		t.Fatal("short input accepted")
	}
}

// The HTTP layer under concurrent clients: correct codes, correct
// payloads, coherent metrics. Run with -race this doubles as the
// concurrency soak.
func TestHTTPConcurrentClients(t *testing.T) {
	eng := newStubEngine()
	_, _, ts := newTestRegistry(t, eng, Options{MaxBatch: 8, Workers: 2})

	const clients, perClient = 8, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				v := c*perClient + r
				label := v % 3
				body, _ := json.Marshal(InferRequest{Input: input(float64(v)), Label: &label})
				resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var out InferResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d, err %v", c, resp.StatusCode, err)
					return
				}
				if out.Pred != v%3 {
					t.Errorf("pred %d, want %d", out.Pred, v%3)
				}
			}
		}(c)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	snap := doc.Models["m"].Snapshot
	if snap.Completed != clients*perClient {
		t.Fatalf("completed %d, want %d", snap.Completed, clients*perClient)
	}
	// Every stub prediction is input%3 and every label was set to the
	// same value, so the live confusion matrix must report 100%.
	if snap.LabeledTotal != clients*perClient || snap.Accuracy != 1 {
		t.Fatalf("labeled %d acc %v, want %d and 1", snap.LabeledTotal, snap.Accuracy, clients*perClient)
	}
	if snap.TotalSpikes != clients*perClient*10 {
		t.Fatalf("spikes %d", snap.TotalSpikes)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	g, _, ts := newTestRegistry(t, newStubEngine(), Options{MaxBatch: 2})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := get("/v1/infer"); got != http.StatusMethodNotAllowed {
		t.Fatalf("GET infer = %d", got)
	}
	if got := post("{not json"); got != http.StatusBadRequest {
		t.Fatalf("bad json = %d", got)
	}
	if got := post(`{"input":[1,2]}`); got != http.StatusBadRequest {
		t.Fatalf("short input = %d", got)
	}
	if got := post(`{"input":[1,2,3,4]}`); got != http.StatusOK {
		t.Fatalf("good input = %d", got)
	}

	g.Close()
	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close = %d", got)
	}
	if got := post(`{"input":[1,2,3,4]}`); got != http.StatusServiceUnavailable {
		t.Fatalf("infer after Close = %d", got)
	}
}

// Defaults must be filled in and visible through Options().
func TestOptionDefaults(t *testing.T) {
	s := New(newStubEngine(), Options{})
	defer s.Close()
	o := s.Options()
	if o.MaxBatch != 16 || o.QueueSize != 128 || o.Workers < 1 {
		t.Fatalf("defaults = %+v", o)
	}
}

// An engine panic must fail the batch's requests, not the process.
func TestEnginePanicIsContained(t *testing.T) {
	s := New(panicEngine{}, Options{MaxBatch: 2})
	defer s.Close()
	_, err := s.Infer(context.Background(), []float64{1, 2, 3, 4}, -1, -1)
	if err == nil || !strings.Contains(err.Error(), "engine panic") {
		t.Fatalf("err = %v, want engine panic error", err)
	}
	// The server must still serve afterwards.
	snap := s.Metrics().Snapshot()
	if snap.Failed != 1 {
		t.Fatalf("failed = %d, want 1", snap.Failed)
	}
}

type panicEngine struct{}

func (panicEngine) InLen() int   { return 4 }
func (panicEngine) Classes() int { return 2 }
func (panicEngine) InferBatch([][]float64, []int) []Prediction {
	panic("boom")
}

// slowEngine answers correctly but takes a fixed wall time per batch —
// long enough that tight deadlines reliably expire mid-flight.
type slowEngine struct {
	stubEngine
	delay time.Duration
}

func (e *slowEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	time.Sleep(e.delay)
	return e.stubEngine.InferBatch(inputs, samples)
}

// The accounting identity accepted = completed + expired + failed must
// hold *exactly* under a storm of mixed deadlines — including requests
// dead on arrival, expired in the queue, expired mid-batch, and the
// race where a result is delivered in the same instant the deadline
// fires (the old code could count one request as both completed and
// expired).
func TestMetricsAccountingIdentity(t *testing.T) {
	eng := &slowEngine{stubEngine: stubEngine{inLen: 4, classes: 3}, delay: 2 * time.Millisecond}
	s := New(eng, Options{MaxBatch: 4, QueueSize: 8, Workers: 2})

	const n = 300
	var wg sync.WaitGroup
	var attempts, rejected atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			switch i % 4 {
			case 1: // deadline close to the engine's batch time: races
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 2*time.Millisecond)
				defer cancel()
			case 2: // hopeless deadline: expires queued or mid-batch
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 100*time.Microsecond)
				defer cancel()
			case 3: // dead on arrival
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				cancel()
			}
			attempts.Add(1)
			_, err := s.Infer(ctx, input(float64(i)), -1, -1)
			if errors.Is(err, ErrOverloaded) {
				rejected.Add(1)
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	snap := s.Metrics().Snapshot()
	if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
		t.Fatalf("identity broken: accepted %d != completed %d + expired %d + failed %d",
			snap.Accepted, snap.Completed, snap.Expired, snap.Failed)
	}
	if snap.Accepted+snap.Rejected != uint64(attempts.Load()) {
		t.Fatalf("accepted %d + rejected %d != attempts %d",
			snap.Accepted, snap.Rejected, attempts.Load())
	}
	if snap.Rejected != uint64(rejected.Load()) {
		t.Fatalf("rejected metric %d != observed %d", snap.Rejected, rejected.Load())
	}
}

// When the worker's result and the context deadline are ready in the
// same select, Infer must prefer the delivered result (it is real,
// already-counted work) instead of discarding it and double-counting
// the request as expired. Engineered by firing the cancel and the
// engine release together, many times.
func TestInferPrefersDeliveredResultOnDeadlineRace(t *testing.T) {
	eng := newStubEngine()
	eng.enter = make(chan struct{}, 1)
	eng.release = make(chan struct{}, 1)
	s := New(eng, Options{MaxBatch: 1, Workers: 1})

	const rounds = 60
	completions := 0
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := s.Infer(ctx, input(float64(i)), -1, -1)
			done <- err
		}()
		<-eng.enter // the batch is in the engine
		// Fire both: the result lands on req.done at the same time the
		// context dies. Either outcome is legal; double counting is not.
		eng.release <- struct{}{}
		cancel()
		if err := <-done; err == nil {
			completions++
		}
	}
	s.Close()

	snap := s.Metrics().Snapshot()
	if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
		t.Fatalf("identity broken after %d raced rounds: accepted %d != completed %d + expired %d + failed %d",
			rounds, snap.Accepted, snap.Completed, snap.Expired, snap.Failed)
	}
	// Whoever won the settle race decided the category: a client that
	// got a prediction is a completion, a client that got ctx.Err() is
	// an expiry — and the two partitions exactly cover the rounds.
	if snap.Completed != uint64(completions) {
		t.Fatalf("completed %d != successful returns %d", snap.Completed, completions)
	}
	if snap.Completed+snap.Expired != rounds {
		t.Fatalf("completed %d + expired %d != rounds %d", snap.Completed, snap.Expired, rounds)
	}
}

// Drain under load: Infer storms racing Close must neither deadlock,
// drop an accepted request without an answer, nor corrupt the
// accounting. Run under -race this is the shutdown soak.
func TestConcurrentInferClose(t *testing.T) {
	eng := &slowEngine{stubEngine: stubEngine{inLen: 4, classes: 3}, delay: 500 * time.Microsecond}
	s := New(eng, Options{MaxBatch: 4, QueueSize: 16, Workers: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var submitted, answered atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				submitted.Add(1)
				_, err := s.Infer(context.Background(), input(float64(w*1000+i)), -1, -1)
				answered.Add(1)
				switch {
				case err == nil:
				case errors.Is(err, ErrOverloaded):
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("unexpected error during drain race: %v", err)
					return
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	s.Close() // races live Infer calls
	close(stop)
	wg.Wait()

	if submitted.Load() != answered.Load() {
		t.Fatalf("submitted %d != answered %d: an Infer never returned", submitted.Load(), answered.Load())
	}
	snap := s.Metrics().Snapshot()
	if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
		t.Fatalf("identity broken across Close: accepted %d != completed %d + expired %d + failed %d",
			snap.Accepted, snap.Completed, snap.Expired, snap.Failed)
	}
}

// Options.MaxTimeout must clamp client-supplied deadlines — both
// oversized timeout_ms values and requests that omit the field
// entirely — so a client cannot hold a queue slot indefinitely or
// dodge deadline-based admission.
func TestHTTPMaxTimeoutClamp(t *testing.T) {
	eng := newStubEngine()
	eng.enter = make(chan struct{}, 4)
	eng.release = make(chan struct{}, 4)
	_, s, ts := newTestRegistry(t, eng, Options{MaxBatch: 1, Workers: 1, MaxTimeout: 30 * time.Millisecond})

	// Occupy the only worker so clamped requests expire in the queue.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Infer(context.Background(), input(0), -1, -1)
	}()
	<-eng.enter

	for _, body := range []string{
		`{"input":[1,0,0,0],"timeout_ms":3600000}`, // absurd deadline: clamped
		`{"input":[1,0,0,0]}`,                      // no deadline at all: clamped
	} {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("clamped request %s: status %d, want 504", body, resp.StatusCode)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("clamped request took %v — MaxTimeout not applied", elapsed)
		}
	}

	eng.release <- struct{}{}
	wg.Wait()
	// Drain whatever the dispatcher still holds, then shut down.
	close(eng.release)
	s.Close()
}

// Trailing garbage after the JSON body means the request was framed
// wrong; it must be rejected, not silently half-read.
func TestHTTPTrailingGarbageRejected(t *testing.T) {
	_, _, ts := newTestRegistry(t, newStubEngine(), Options{MaxBatch: 2})

	for _, body := range []string{
		`{"input":[1,2,3,4]}{"input":[1,2,3,4]}`,
		`{"input":[1,2,3,4]} garbage`,
		`{"input":[1,2,3,4]} 17`,
	} {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trailing garbage %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Trailing whitespace is fine.
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
		bytes.NewReader([]byte(`{"input":[1,2,3,4]}`+"\n  \n")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200", resp.StatusCode)
	}
}

// Every 429 must carry Retry-After so well-behaved clients know when
// to come back.
func TestHTTPRetryAfterOnOverload(t *testing.T) {
	eng := newStubEngine()
	eng.enter = make(chan struct{}, 8)
	eng.release = make(chan struct{}, 8)
	_, s, ts := newTestRegistry(t, eng, Options{MaxBatch: 1, QueueSize: 1, Workers: 1})

	// Saturate: the blocked worker, the dispatcher's hand, and the queue
	// slot only ever fill (no request carries a deadline and the engine
	// never releases), so the first observed rejection proves — and
	// preserves — fullness.
	var wg sync.WaitGroup
	saturated := false
	for i := 0; i < 20 && !saturated; i++ {
		errc := make(chan error, 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Infer(context.Background(), input(float64(i)), -1, -1)
			errc <- err
		}(i)
		select {
		case err := <-errc:
			if errors.Is(err, ErrOverloaded) {
				saturated = true
			}
		case <-time.After(20 * time.Millisecond):
			// accepted and blocked: one more slot consumed
		}
	}
	if !saturated {
		t.Fatal("queue never saturated")
	}

	resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
		bytes.NewReader([]byte(`{"input":[9,0,0,0]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(eng.release)
	wg.Wait()
	s.Close()
}
