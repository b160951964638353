package snn

// TimedPred is one entry of an output-decision timeline: Pred became the
// current argmax of the output potentials at global step Step.
type TimedPred struct {
	Step int
	Pred int
}

// SimResult is the outcome of simulating one input through a spiking
// network under some neural coding scheme.
type SimResult struct {
	// Pred is the decision at the end of the simulated window.
	Pred int
	// Steps is the number of simulated time steps.
	Steps int
	// TotalSpikes counts every spike in the network including input
	// encoding spikes.
	TotalSpikes int
	// SpikesPerStage[0] counts input spikes; [i] counts stage i-1
	// output spikes.
	SpikesPerStage []int
	// Timeline records argmax changes of the output potentials over
	// time (only when requested).
	Timeline []TimedPred
	// Potentials are the final accumulated output potentials.
	Potentials []float64
}

// PredAt returns the timeline's decision current at the given step (the
// latest entry at or before it), or -1 before any output activity.
func PredAt(timeline []TimedPred, step int) int {
	pred := -1
	for _, tp := range timeline {
		if tp.Step > step {
			break
		}
		pred = tp.Pred
	}
	return pred
}

// RecordPred appends a timeline entry when the prediction changed.
func (r *SimResult) RecordPred(step int, potentials []float64) {
	pred := ArgMax(potentials)
	n := len(r.Timeline)
	if n == 0 || r.Timeline[n-1].Pred != pred {
		r.Timeline = append(r.Timeline, TimedPred{Step: step, Pred: pred})
	}
}

// ArgMax returns the index of the largest element, or -1 for an empty
// slice (callers treat -1 as "no decision", matching PredAt).
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// CountSpikes sums a per-stage spike tally into TotalSpikes.
func (r *SimResult) CountSpikes() {
	r.TotalSpikes = 0
	for _, s := range r.SpikesPerStage {
		r.TotalSpikes += s
	}
}
