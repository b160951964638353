// Package fault implements a seeded, deterministic fault-injection
// layer for the spiking simulators. TTFS coding carries each neuron's
// value in a single spike time, so neuromorphic-hardware faults — lost
// spikes, timing jitter, stuck neurons, noisy thresholds, perturbed
// weights — are maximally destructive to it; rate-like codes spread the
// same information over many spikes and degrade gracefully. This
// package provides composable fault models that apply uniformly to
// every coding scheme (internal/core and internal/coding), so their
// robustness can be compared under identical fault processes.
//
// Determinism: every fault decision is a pure function of
// (seed, fault domain, sample, boundary, neuron, step) via a
// splitmix64-style hash — no mutable RNG state. Decisions are therefore
// independent of evaluation order, worker count, and which other fault
// models are enabled, making sweeps reproducible and race-free.
package fault

import (
	"fmt"
	"math"
)

// StuckState classifies a neuron's permanent hardware defect.
type StuckState uint8

// Stuck states.
const (
	// Healthy neurons behave normally.
	Healthy StuckState = iota
	// StuckSilent neurons never emit a spike (dead circuit).
	StuckSilent
	// StuckFire neurons fire regardless of their membrane potential:
	// at the start of the fire window under TTFS, every step under
	// clock-driven codes.
	StuckFire
)

func (s StuckState) String() string {
	switch s {
	case StuckSilent:
		return "stuck-silent"
	case StuckFire:
		return "stuck-fire"
	default:
		return "healthy"
	}
}

// Config selects the fault models and their intensities. The zero value
// injects nothing.
type Config struct {
	// Seed drives every fault decision; the same seed reproduces the
	// same faults for the same workload.
	Seed uint64

	// Drop is the probability that any individual spike is lost in
	// transit between layers (transient communication fault). The
	// emitting neuron still enters refractory; the downstream layer
	// never sees the spike.
	Drop float64

	// Jitter is the maximum timing perturbation in steps. TTFS spike
	// offsets move by a uniform amount in [-Jitter, +Jitter] (clamped
	// to the fire window); clock-driven schemes delay delivery by a
	// uniform amount in [0, Jitter] (a causal simulator cannot deliver
	// into the past).
	Jitter int

	// StuckSilent and StuckFire are the fractions of neurons, per fire
	// boundary, wired to the corresponding permanent defect. Membership
	// is a fixed function of (Seed, boundary, neuron) — the same
	// neurons are broken for every sample, as on a real chip.
	StuckSilent float64
	StuckFire   float64

	// ThresholdNoise is the relative standard deviation of Gaussian
	// noise applied multiplicatively to every firing-threshold
	// comparison: θ' = θ·(1 + σ·N(0,1)), clamped to a small positive
	// floor (analog threshold drift).
	ThresholdNoise float64

	// WeightNoise is the relative standard deviation of static Gaussian
	// weight perturbation, w' = w·(1 + σ·N(0,1)). It is not applied by
	// streams; use PerturbWeights to derive a faulted network copy
	// (fabrication-defect model).
	WeightNoise float64
}

// Validate rejects out-of-range intensities.
func (c Config) Validate() error {
	switch {
	case c.Drop < 0 || c.Drop > 1:
		return fmt.Errorf("fault: drop probability %v outside [0,1]", c.Drop)
	case c.Jitter < 0:
		return fmt.Errorf("fault: negative jitter %d", c.Jitter)
	case c.StuckSilent < 0 || c.StuckFire < 0 || c.StuckSilent+c.StuckFire > 1:
		return fmt.Errorf("fault: stuck fractions (%v silent, %v fire) must be non-negative and sum to at most 1",
			c.StuckSilent, c.StuckFire)
	case c.ThresholdNoise < 0:
		return fmt.Errorf("fault: negative threshold noise %v", c.ThresholdNoise)
	case c.WeightNoise < 0:
		return fmt.Errorf("fault: negative weight noise %v", c.WeightNoise)
	}
	return nil
}

// Injector is an immutable, validated fault configuration. A nil
// *Injector means "no faults" and is accepted everywhere.
type Injector struct {
	cfg Config
}

// New builds an injector, validating the configuration.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// Config returns the injector's configuration (zero value when nil).
func (j *Injector) Config() Config {
	if j == nil {
		return Config{}
	}
	return j.cfg
}

// Sample derives the per-sample fault stream for sample idx. A nil
// injector yields a nil stream, which every hook treats as "no faults"
// — the simulators' fast path.
func (j *Injector) Sample(idx int) *Stream {
	if j == nil {
		return nil
	}
	return &Stream{j: j, sample: uint64(idx)}
}

// Stuck reports the permanent defect state of neuron n at fire boundary
// b. The assignment is sample-independent: a chip's broken neurons do
// not move between inferences.
func (j *Injector) Stuck(b, n int) StuckState {
	if j == nil {
		return Healthy
	}
	silent, fire := j.cfg.StuckSilent, j.cfg.StuckFire
	if silent <= 0 && fire <= 0 {
		return Healthy
	}
	u := hashUniform(j.cfg.Seed, domStuck, 0, uint64(b), uint64(n), 0)
	if u < silent {
		return StuckSilent
	}
	if u < silent+fire {
		return StuckFire
	}
	return Healthy
}

// Stream is the fault view of one sample's inference. Methods are
// nil-safe: a nil stream injects nothing.
type Stream struct {
	j      *Injector
	sample uint64
}

// Hash domains keep the fault decisions statistically independent.
const (
	domStuck uint64 = 1 + iota
	domDrop
	domJitter
	domThreshA
	domThreshB
)

// splitmix64 finalizer: mixes one word into the running hash.
func mix(h, x uint64) uint64 {
	z := h ^ (x + 0x9e3779b97f4a7c15 + (h << 12))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashUniform maps a fault-decision key to a uniform value in [0, 1).
func hashUniform(seed, dom, sample, b, n, t uint64) float64 {
	h := mix(seed, dom)
	h = mix(h, sample)
	h = mix(h, b)
	h = mix(h, n)
	h = mix(h, t)
	return float64(h>>11) / (1 << 53)
}

// Drop reports whether the spike emitted by neuron n at fire boundary b
// at (local) time t is lost in transit.
func (s *Stream) Drop(b, n, t int) bool {
	if s == nil || s.j.cfg.Drop <= 0 {
		return false
	}
	return hashUniform(s.j.cfg.Seed, domDrop, s.sample, uint64(b), uint64(n), uint64(t)) < s.j.cfg.Drop
}

// Stuck reports neuron (b, n)'s permanent defect state.
func (s *Stream) Stuck(b, n int) StuckState {
	if s == nil {
		return Healthy
	}
	return s.j.Stuck(b, n)
}

// JitterTTFS perturbs a TTFS spike offset by a uniform amount in
// [-Jitter, +Jitter], clamped to [0, window).
func (s *Stream) JitterTTFS(b, n, t, window int) int {
	if s == nil || s.j.cfg.Jitter <= 0 {
		return t
	}
	k := s.j.cfg.Jitter
	u := hashUniform(s.j.cfg.Seed, domJitter, s.sample, uint64(b), uint64(n), uint64(t))
	t += int(u*float64(2*k+1)) - k
	if t < 0 {
		t = 0
	}
	if t >= window {
		t = window - 1
	}
	return t
}

// Delay returns the clocked-delivery delay in [0, Jitter] for the spike
// emitted by neuron n at boundary b at step t.
func (s *Stream) Delay(b, n, t int) int {
	if s == nil || s.j.cfg.Jitter <= 0 {
		return 0
	}
	u := hashUniform(s.j.cfg.Seed, domJitter, s.sample, uint64(b), uint64(n), uint64(t))
	return int(u * float64(s.j.cfg.Jitter+1))
}

// Threshold perturbs a firing threshold multiplicatively with Gaussian
// noise, θ' = θ·(1 + σ·N(0,1)), floored at a small positive fraction of
// θ so a threshold never becomes free (or negative).
func (s *Stream) Threshold(b, t int, theta float64) float64 {
	return s.ThresholdDraw(b, t).Apply(theta)
}

// ThresholdDraw is the threshold noise of one fire boundary at one step.
// The Gaussian draw depends only on (boundary, step), never on the
// neuron or θ, so a clocked loop takes it once per boundary and step and
// applies it to every neuron: s.ThresholdDraw(b, t).Apply(θ) is
// s.Threshold(b, t, θ), bit for bit.
type ThresholdDraw struct {
	factor float64 // 1 + σ·N(0,1)
	on     bool
}

// ThresholdDraw returns the threshold noise of boundary b at step t
// (none when the stream has no threshold noise).
func (s *Stream) ThresholdDraw(b, t int) ThresholdDraw {
	if !s.HasThresholdNoise() {
		return ThresholdDraw{}
	}
	return ThresholdDraw{factor: s.thresholdFactor(b, t), on: true}
}

// Apply perturbs θ with the draw (see Threshold).
func (d ThresholdDraw) Apply(theta float64) float64 {
	if !d.on {
		return theta
	}
	scaled := theta * d.factor
	if floor := 0.01 * theta; scaled < floor {
		return floor
	}
	return scaled
}

// thresholdFactor is the multiplicative noise factor 1 + σ·N(0,1) of
// boundary b at step t: Box–Muller from two independent hash draws, u1
// nudged away from 0.
func (s *Stream) thresholdFactor(b, t int) float64 {
	u1 := hashUniform(s.j.cfg.Seed, domThreshA, s.sample, uint64(b), 0, uint64(t))
	u2 := hashUniform(s.j.cfg.Seed, domThreshB, s.sample, uint64(b), 0, uint64(t))
	norm := math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
	return 1 + s.j.cfg.ThresholdNoise*norm
}

// HasThresholdNoise reports whether the stream perturbs firing-threshold
// comparisons (Config.ThresholdNoise > 0). Engines whose firing decision
// is an analytic inverse of the threshold curve (the event-driven path)
// cannot absorb per-step threshold noise and use this to fall back to a
// clocked sweep. Nil-safe: a nil stream has no noise.
func (s *Stream) HasThresholdNoise() bool {
	return s != nil && s.j.cfg.ThresholdNoise > 0
}

// ApplyTTFS applies the stream's boundary faults to per-neuron TTFS
// spike offsets in place (offset -1 = silent) and returns the number of
// live spikes. Stuck defects override everything: stuck-silent clears
// the spike, stuck-fire forces a spike at the window start. Healthy
// neurons' spikes may then be dropped or jittered within [0, window).
func (s *Stream) ApplyTTFS(b int, times []int, window int) int {
	live := 0
	if s == nil {
		for _, t := range times {
			if t >= 0 {
				live++
			}
		}
		return live
	}
	for n, t := range times {
		switch s.Stuck(b, n) {
		case StuckSilent:
			times[n] = -1
			continue
		case StuckFire:
			times[n] = 0
			live++
			continue
		}
		if t < 0 {
			continue
		}
		if s.Drop(b, n, t) {
			times[n] = -1
			continue
		}
		times[n] = s.JitterTTFS(b, n, t, window)
		live++
	}
	return live
}
