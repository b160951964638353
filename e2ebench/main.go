// Command e2ebench is the repository's end-to-end serving benchmark. It
// builds the serving stack in-process from its public constructors
// (experiments.Prepare, core.NewModel, serve.NewRegistry, gateway.New)
// on loopback listeners, drives it from this process with at most
// nproc connections, checks every served prediction against a
// reference computed with core.Model.InferOne, and prints one JSON
// result line last. See README.md for the workloads and metrics.
//
//	go run . --workload oneshot-clock-json --seed 1 --seconds 24 --trace 0
//	go run . --compare old.json new.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that wraps each layer's public interface in spans and reports the
// per-layer metrics.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Load-generator validity bounds: an open-loop phase whose generator
// released requests late by more than maxLagShareP50 of the phase's own
// latency p50 (both at p50, which is scored), by more than
// maxLagShareP99 of its latency p99 (both at p99, printed only), or
// slower than minRateRatio of the nominal rate, measured the generator,
// not the server. The run then fails without a result. The generator
// wakes about 0.08 ms late at p50, under 5% of any scored p50; at p99
// every thread on a 2-CPU host, the server's and a separate process's
// alike, wakes 0.5–3 ms late, up to half the latency p99 (README.md,
// "Load-generator validity").
const (
	maxLagShareP50 = 0.15
	maxLagShareP99 = 0.6
	minRateRatio   = 0.97
)

// outDir holds result records and span dumps, relative to the
// repository root.
const outDir = ".bench_build"

func main() {
	wname := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed: drives the inputs and the arrival schedule")
	seconds := flag.Int("seconds", 24, "measured seconds, split across the light, heavy and peak phases")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
	setupOnly := flag.Bool("setup-only", false, "build the workload's stack once, print its set-up time and exit (used for setup_s)")
	compare := flag.Bool("compare", false, "compare two result records named as arguments")
	flag.Parse()

	if *compare {
		os.Exit(compareRecords(flag.Args()))
	}
	w, err := lookupWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if *setupOnly {
		d, err := timeSetup(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Printf("SETUP %.9f\n", d)
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	r := &runner{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, conns: runtime.NumCPU(), trace: *traceFlag == 1}
	rec, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := rec.write(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

func timeSetup(w *workload) (float64, error) {
	start := time.Now()
	st, err := buildStack(w, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	st.close()
	return d.Seconds(), nil
}

// childSetup runs one cold set-up in a fresh process. A second set-up
// in the same process is not cold: experiments.Prepare keeps the built
// dataset and weights in memory, and a repeat takes under 10 ms.
func childSetup(w *workload) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "--setup-only", "--workload", w.name).Output()
	if err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 || f[0] != "SETUP" {
		return 0, fmt.Errorf("setup child printed %q", out)
	}
	return strconv.ParseFloat(f[1], 64)
}

// runner holds one run's state.
type runner struct {
	w     *workload
	seed  uint64
	dur   time.Duration
	conns int
	trace bool

	set    inputSet
	bodies bodies
	refs   []outcome
	spikes [][]int // reference Result.Spikes per input
	ids    atomic.Int64

	// served[i] is the first prediction served for input i (-1 before).
	served []atomic.Int32

	mu         sync.Mutex
	mismatches int
	mismatch   string
	attempted  int
	failed     int
	cursor     []int // per stream session: next frame of its walk
}

// check compares one served outcome with its reference.
func (r *runner) check(input int, got outcome) {
	r.served[input].CompareAndSwap(-1, int32(got.pred))
	if want := r.refs[input]; got != want {
		r.mu.Lock()
		if r.mismatches == 0 {
			r.mismatch = fmt.Sprintf("input %d: served %+v, reference %+v", input, got, want)
		}
		r.mismatches++
		r.mu.Unlock()
	}
}

func (r *runner) count(p phaseResult) {
	r.mu.Lock()
	r.attempted += p.attempted
	r.failed += p.failed
	r.mu.Unlock()
}

// references computes every distinct input's reference outcome with
// core.Model.InferOne on the workload's engine, outside any timed
// region.
func (r *runner) references() error {
	mc, err := loadModel()
	if err != nil {
		return err
	}
	m, err := mc.newModel()
	if err != nil {
		return err
	}
	run := mc.runConfig(r.w.engine)
	sc := core.NewInferScratch(m)
	r.refs = make([]outcome, len(r.set.x))
	r.spikes = make([][]int, len(r.set.x))
	for i, in := range r.set.x {
		res := m.InferOne(in, run, core.InferOpts{Scratch: sc, Engine: r.w.engine})
		r.refs[i] = outcome{pred: res.Pred, latency: res.Latency, spikes: res.TotalSpikes, saved: res.EventsSaved, early: res.EarlyExit}
		r.spikes[i] = append([]int(nil), res.Spikes...)
	}
	return nil
}

// stageNeurons returns the neuron count behind each Result.Spikes
// entry: the input encoding, then every firing stage.
func stageNeurons() ([]int, error) {
	mc, err := loadModel()
	if err != nil {
		return nil, err
	}
	net := mc.setup.Conv.Net
	n := []int{net.InLen}
	for _, st := range net.Stages[:len(net.Stages)-1] {
		n = append(n, st.OutLen)
	}
	return n, nil
}

// load is one stack plus the client driving it.
type load struct {
	r     *runner
	st    *stack
	tr    *tracer
	shot  *oneshot
	conns []*conn
}

func (r *runner) newLoad(st *stack, tr *tracer) *load {
	l := &load{r: r, st: st, tr: tr}
	client := newClient(r.conns, tr)
	l.shot = &oneshot{client: client, url: st.url, bodies: r.bodies, ids: &r.ids}
	for c := 0; c < r.conns; c++ {
		l.conns = append(l.conns, &conn{})
	}
	return l
}

func (l *load) close() { l.shot.client.CloseIdleConnections() }

// oneshotSend returns a request sending input pick[i] on connection c.
func (l *load) oneshotSend(pick []int) request {
	return func(c, i int) error {
		input := pick[i%len(pick)]
		got, err := l.shot.send(l.conns[c], input)
		if err != nil {
			return err
		}
		l.r.check(input, got)
		return nil
	}
}

// sessions opens one stream session per connection.
func (l *load) sessions() ([]*session, error) {
	ss := make([]*session, l.r.conns)
	for c := range ss {
		s, err := openSession(l.shot.client, l.st.url, l.r.ids.Add(1))
		if err != nil {
			for _, o := range ss[:c] {
				o.close()
			}
			return nil, err
		}
		ss[c] = s
	}
	return ss, nil
}

func closeSessions(ss []*session) error {
	var errs []error
	for _, s := range ss {
		errs = append(errs, s.close())
	}
	return errors.Join(errs...)
}

// frameSend returns a request sending the frame pick chooses for
// session c's i-th send.
func (l *load) frameSend(ss []*session, pick func(c, i int) int) request {
	return func(c, i int) error {
		input := pick(c, i)
		id := l.r.ids.Add(1)
		t0 := int64(0)
		if l.tr != nil {
			t0 = l.tr.now()
			l.tr.sentFrame(ss[c].id, id)
		}
		got, err := ss[c].frame(l.r.bodies, input, id)
		if l.tr != nil {
			l.tr.add(span{name: "client", id: id, start: t0, end: l.tr.now()})
		}
		if err != nil {
			return err
		}
		l.r.check(input, got)
		return nil
	}
}

// nextFrame cycles session c through its walk of traffic frames.
func (l *load) nextFrame(c, _ int) int {
	input := c*framesPerSession + l.r.cursor[c]%framesPerSession
	l.r.cursor[c]++
	return input
}

// warmup serves every distinct input once, untimed: connections and
// hedge-delay history fill, and served[] holds a prediction for every
// input of the fixed evaluation set.
func (l *load) warmup() error {
	n := len(l.r.set.x)
	var p phaseResult
	if l.r.w.stream {
		ss, err := l.sessions()
		if err != nil {
			return err
		}
		due := make([][]time.Duration, len(ss))
		for c := range due {
			due[c] = make([]time.Duration, 2*framesPerSession)
		}
		traffic := l.r.set.traffic
		p = runSessions(due, l.frameSend(ss, func(c, i int) int {
			if i < framesPerSession {
				return c*framesPerSession + i
			}
			return traffic + c*framesPerSession + i - framesPerSession
		}))
		if err := closeSessions(ss); err != nil {
			return err
		}
	} else {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		p = runOpen(make([]time.Duration, n), l.r.conns, l.oneshotSend(order))
	}
	l.r.count(p)
	return l.st.checkLedgers()
}

// phase is one measured phase's outcome, pooled over every round.
type phase struct {
	name string
	res  phaseResult
}

// rounds is how many times a run cycles through its phases. The host's
// speed drifts over seconds, so each phase is spread across the whole
// run instead of owning one stretch of it.
const rounds = 8

// Phase shares of --seconds.
const lightShare, heavyShare, peakShare = 0.45, 0.4, 0.15

// peakSlices is how many closed-loop slices a round's peak time is split
// into, each with fresh stream sessions. Two lockstep sessions keep one
// of two rates for as long as they live (about 250 or 450 frames per
// 0.56 s), so one pair per round made peak_rps a draw of eight.
const peakSlices = 4

// open runs one round's slice of an open-loop phase: n requests at
// rate.
func (l *load) open(name string, rate float64, n, round int) (phaseResult, error) {
	rng := phaseRNG(l.r.seed, fmt.Sprintf("%s/%d", name, round))
	var p phaseResult
	if l.r.w.stream {
		ss, err := l.sessions()
		if err != nil {
			return p, err
		}
		per := (n + len(ss) - 1) / len(ss)
		period := time.Duration(float64(len(ss)) / rate * float64(time.Second))
		due := make([][]time.Duration, len(ss))
		for c := range due {
			due[c] = frameClock(rng, per, period)
		}
		p = runSessions(due, l.frameSend(ss, l.nextFrame))
		if err := closeSessions(ss); err != nil {
			return p, err
		}
	} else {
		s := poissonSchedule(rng, n, rate, l.r.set.traffic)
		p = runOpen(s.due, l.r.conns, l.oneshotSend(s.pick))
	}
	l.r.count(p)
	return p, l.st.checkLedgers()
}

// peak runs one round's slice of the closed loop: nproc clients back to
// back (sessions in lockstep for streams).
func (l *load) peak(dur time.Duration, minN, round int) (phaseResult, error) {
	var p phaseResult
	if l.r.w.stream {
		ss, err := l.sessions()
		if err != nil {
			return p, err
		}
		p = runClosed(len(ss), dur, minN, l.frameSend(ss, l.nextFrame))
		if err := closeSessions(ss); err != nil {
			return p, err
		}
	} else {
		pick := picks(phaseRNG(l.r.seed, fmt.Sprintf("peak/%d", round)), 1<<16, l.r.set.traffic)
		p = runClosed(l.r.conns, dur, minN, l.oneshotSend(pick))
	}
	l.r.count(p)
	return p, l.st.checkLedgers()
}

// measure runs rounds of light, heavy and peak on a warmed stack and
// pools each phase's samples; between, when non-nil, runs after every
// round. Each phase collects at least minPhaseSamples over the run.
func (l *load) measure(between func(round int) error) ([]phase, error) {
	perRound := func(rate, share float64) int {
		return max((minPhaseSamples+rounds-1)/rounds, int(rate*share*l.r.dur.Seconds()+rounds-1)/rounds)
	}
	nLight := perRound(l.r.w.lightRate, lightShare)
	nHeavy := perRound(l.r.w.heavyRate, heavyShare)
	peakDur := time.Duration(peakShare * float64(l.r.dur) / rounds)
	phases := []phase{{name: "light"}, {name: "heavy"}, {name: "peak"}}
	for round := 0; round < rounds; round++ {
		light, err := l.open("light", l.r.w.lightRate, nLight, round)
		if err != nil {
			return nil, err
		}
		heavy, err := l.open("heavy", l.r.w.heavyRate, nHeavy, round)
		if err != nil {
			return nil, err
		}
		var pk phaseResult
		for k := 0; k < peakSlices; k++ {
			p, err := l.peak(peakDur/peakSlices, (minPhaseSamples+rounds*peakSlices-1)/(rounds*peakSlices), round*peakSlices+k)
			if err != nil {
				return nil, err
			}
			pk = pool(pk, p)
		}
		for i, p := range []phaseResult{light, heavy, pk} {
			phases[i].res = pool(phases[i].res, p)
		}
		if between != nil {
			if err := between(round); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range phases[:2] {
		if err := p.res.valid(); err != nil {
			return nil, fmt.Errorf("run invalid: %s phase: %w", p.name, err)
		}
	}
	return phases, nil
}

func (r *runner) run() (*record, error) {
	r.set = makeInputs(r.seed, r.conns, r.w.stream, r.w.binary)
	r.bodies = encodeBodies(r.set, r.w.binary)
	r.served = make([]atomic.Int32, len(r.set.x))
	for i := range r.served {
		r.served[i].Store(-1)
	}
	r.cursor = make([]int, r.conns)
	if r.trace {
		return r.runTraced()
	}

	// The load generator's inputs and bodies are live before the stack
	// exists; mem_peak_mb counts what the stack adds on top of them.
	base := liveHeapMB()
	start := time.Now()
	st, err := buildStack(r.w, nil)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(start).Seconds()}
	defer st.close()
	if err := r.references(); err != nil {
		return nil, err
	}
	// Cold set-ups in child processes, one before the first round and
	// one after every second round, so they sample the host's drifting
	// speed like the phases do.
	moreSetup := func() error {
		s, err := childSetup(r.w)
		setups = append(setups, s)
		return err
	}
	if err := moreSetup(); err != nil {
		return nil, err
	}
	l := r.newLoad(st, nil)
	defer l.close()
	if err := l.warmup(); err != nil {
		return nil, err
	}
	heap := 0.0
	phases, err := l.measure(func(round int) error {
		heap = max(heap, liveHeapMB()-base)
		if round%2 == 0 {
			return nil
		}
		return moreSetup()
	})
	if err != nil {
		return nil, err
	}

	rec := r.newRecord()
	rec.add("setup_s", median(setups), "s", len(setups))
	// The tails and peak_rps are printed, not scored: on a 2-vCPU VM they
	// follow the host's stalls and drift more than any bound allows
	// (README.md, "Scored and printed metrics").
	for _, p := range phases[:2] {
		lat := slices.Clone(p.res.lat)
		slices.Sort(lat)
		rec.add(p.name+".p50_ms", percentile(lat, 0.50), "ms", len(lat))
		rec.info(p.name+".p95_ms", percentile(lat, 0.95), "ms", len(lat))
		rec.info(p.name+".p99_ms", percentile(lat, 0.99), "ms", len(lat))
	}
	rec.info("peak_rps", phases[2].res.rate(), "req/s", len(phases[2].res.lat))
	rec.add("ok_ratio", float64(r.attempted-r.failed)/float64(r.attempted), "ratio", r.attempted)
	rec.add("accuracy", r.accuracy(), "ratio", len(r.set.x)-r.set.traffic)
	rec.add("mem_peak_mb", heap, "MB", rounds)
	rec.info("setup_s.first", setups[0], "s", 1)
	r.addLoadgen(rec, phases)
	return rec, nil
}

// liveHeapMB collects garbage and returns the heap left live, in MB.
// Unlike the memory obtained from the OS, it does not step with the
// garbage collector's heap growth, which made Sys and peak RSS jump by
// a quarter between otherwise identical runs.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// accuracy is the share of the fixed evaluation set served with its
// label.
func (r *runner) accuracy() float64 {
	correct := 0
	for i := r.set.traffic; i < len(r.served); i++ {
		if int(r.served[i].Load()) == r.set.labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(r.served)-r.set.traffic)
}

// addLoadgen records the generator's own figures over the open-loop
// phases.
func (r *runner) addLoadgen(rec *record, phases []phase) {
	var lags []float64
	ratio := 1.0
	for _, p := range phases[:2] {
		lags = append(lags, p.res.lags...)
		ratio = min(ratio, p.res.rateRatio())
	}
	_, lag := quantiles(lags)
	add := rec.info
	if r.trace {
		add = rec.add
	}
	for _, p := range phases[:2] {
		l50, l99 := quantiles(p.res.lags)
		rec.info("loadgen."+p.name+".lag_p50_ms", l50, "ms", len(p.res.lags))
		rec.info("loadgen."+p.name+".lag_p99_ms", l99, "ms", len(p.res.lags))
	}
	add("loadgen.lag_p99_ms", lag, "ms", len(lags))
	add("loadgen.rate_ratio", ratio, "ratio", len(lags))
}

// runTraced is the per-layer run. It first measures the closed loop on
// an untraced stack, then runs every phase on a stack whose layers are
// wrapped in spans; trace.overhead_ratio is the untraced peak rate over
// the traced one.
func (r *runner) runTraced() (*record, error) {
	if err := r.references(); err != nil {
		return nil, err
	}
	plain, err := buildStack(r.w, nil)
	if err != nil {
		return nil, err
	}
	l := r.newLoad(plain, nil)
	err = l.warmup()
	var untraced phaseResult
	if err == nil {
		untraced, err = l.peak(time.Duration(peakShare*float64(r.dur)), minPhaseSamples, 0)
	}
	l.close()
	plain.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	st, err := buildStack(r.w, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	l = r.newLoad(st, tr)
	defer l.close()
	if err := l.warmup(); err != nil {
		return nil, err
	}
	first := r.ids.Load()
	before := st.snapshot()
	phases, err := l.measure(nil)
	if err != nil {
		return nil, err
	}
	after := st.snapshot()

	rec := r.newRecord()
	if err := r.layers(rec, tr, first, before, after, phases, untraced.rate()); err != nil {
		return nil, err
	}
	r.addLoadgen(rec, phases)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	err = writeSpans(bw, tr)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(tr.spans), path)
	return rec, nil
}

// layers computes the per-layer metrics of a traced run.
func (r *runner) layers(rec *record, tr *tracer, first int64, before, after ledger, phases []phase, untracedRPS float64) error {
	ix := indexSpans(tr, first)
	b := ix.breakdown(r.w.stream)

	// core: engine calls.
	var engUs []float64
	samples, spikes, early, saved := 0, 0, 0, 0
	for _, e := range ix.engine {
		engUs = append(engUs, us(e.end-e.start))
		samples += len(e.ids)
		spikes += e.spikes
		early += e.early
		saved += e.saved
	}
	p50, p99 := quantiles(engUs)
	rec.add("core.engine_us.p50", p50, "us", len(engUs))
	rec.add("core.engine_us.p99", p99, "us", len(engUs))
	rec.add("core.samples_per_call", ratio(samples, len(engUs)), "count", len(engUs))
	rec.add("core.spikes_per_sample", ratio(spikes, samples), "count", samples)
	rec.add("core.early_exit_ratio", ratio(early, samples), "ratio", samples)
	rec.add("core.events_saved_per_sample", ratio(saved, samples), "count", samples)
	neurons, err := stageNeurons()
	if err != nil {
		return err
	}
	for k, n := range neurons {
		total := 0
		for _, s := range r.spikes {
			if k < len(s) {
				total += s[k]
			}
		}
		rec.add(fmt.Sprintf("core.spikes_per_neuron.s%d", k), float64(total)/float64(len(r.spikes)*n), "ratio", len(r.spikes))
	}

	// serve: handler self time, queueing and the registry ledgers.
	p50, p99 = quantiles(b.serveSelf)
	rec.add("serve.self_us.p50", p50, "us", len(b.serveSelf))
	rec.add("serve.self_us.p99", p99, "us", len(b.serveSelf))
	p50, p99 = quantiles(b.queueWait)
	rec.add("serve.queue_wait_us.p50", p50, "us", len(b.queueWait))
	rec.add("serve.queue_wait_us.p99", p99, "us", len(b.queueWait))
	var batches, batched, completed, direct, rejected, expired uint64
	for i := range after.reg {
		a, o := after.reg[i], before.reg[i]
		for k := range a.BatchSizeHist {
			d := a.BatchSizeHist[k] - o.BatchSizeHist[k]
			batches += d
			batched += uint64(k) * d
		}
		completed += a.Completed - o.Completed
		direct += a.LatencyPathTotal - o.LatencyPathTotal
		rejected += a.Rejected - o.Rejected + a.DeadlineShed - o.DeadlineShed
		expired += a.Expired - o.Expired
	}
	rec.add("serve.mean_batch", ratio(int(batched), int(batches)), "count", int(batches))
	rec.add("serve.latency_path_ratio", ratio(int(direct), int(completed)), "ratio", int(completed))
	rec.add("serve.rejected", float64(rejected), "count", int(completed))
	rec.add("serve.expired", float64(expired), "count", int(completed))

	// codecs, timed standalone on this workload's bodies.
	codecs := timeCodecs(r.w, r.set, r.bodies, r.refs, r.spikes)
	for _, name := range []string{"wire.encode_ns", "wire.decode_req_ns", "wire.decode_resp_ns",
		"json.decode_req_ns", "json.encode_resp_ns", "stream.decode_frame_ns", "stream.encode_event_ns"} {
		rec.add(name, codecs[name], "ns", len(r.set.x))
	}
	rec.add("wire.req_bytes", codecs["wire.req_bytes"], "bytes", len(r.set.x))
	rec.add("json.req_bytes", codecs["json.req_bytes"], "bytes", len(r.set.x))

	// stream: per-frame time at the backend, and sessions handed back.
	p50, p99 = quantiles(b.frameSrv)
	rec.add("stream.frame_server_us.p50", p50, "us", len(b.frameSrv))
	rec.add("stream.frame_server_us.p99", p99, "us", len(b.frameSrv))
	rec.add("stream.retries", float64(after.gw.StreamRetries-before.gw.StreamRetries), "count", ix.sessions)

	// gateway: self time, attempts and what they bought.
	p50, p99 = quantiles(b.gwSelf)
	rec.add("gateway.self_us.p50", p50, "us", len(b.gwSelf))
	rec.add("gateway.self_us.p99", p99, "us", len(b.gwSelf))
	attempts := 0
	for _, ss := range ix.by["attempt"] {
		attempts += len(ss)
	}
	handled := len(ix.by["gateway"])
	useful := int(after.gw.Completed - before.gw.Completed)
	if r.w.stream {
		handled = ix.sessions
		useful = ix.sessions - int(after.gw.StreamRetries-before.gw.StreamRetries)
	}
	rec.add("gateway.attempts_per_req", ratio(attempts, handled), "count", handled)
	rec.add("gateway.useful_ratio", ratio(useful, attempts), "ratio", attempts)
	rec.add("gateway.hedges_fired", float64(after.gw.HedgesFired-before.gw.HedgesFired), "count", handled)
	rec.add("gateway.retries", float64(after.gw.Retries-before.gw.Retries), "count", handled)
	rec.add("gateway.evictions", float64(after.gw.EvictionsTotal-before.gw.EvictionsTotal), "count", handled)

	// client HTTP and the gateway → backend hop.
	p50, p99 = quantiles(b.rtt)
	rec.add("client.rtt_us.p50", p50, "us", len(b.rtt))
	rec.add("client.rtt_us.p99", p99, "us", len(b.rtt))
	rec.add("http.overhead_us.p50", median(b.overhead), "us", len(b.overhead))
	rec.add("http.hop_us.p50", median(b.hop), "us", len(b.hop))

	// loadgen and the trace itself.
	rec.add("trace.overhead_ratio", untracedRPS/phases[2].res.rate(), "ratio", len(phases[2].res.lat))
	rec.add("trace.coverage_ratio", b.coverage, "ratio", len(b.rtt))
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
