package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/tensor"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	loadFixture(t)
	src := fixture.model()
	// perturb kernels so the round trip carries non-default values
	_, err := src.ApplyGO(fixture.inputs, fixture.res.Activations, kernel.OptimizeConfig{
		BatchSize: 512, Epochs: 1, RNG: tensor.NewRNG(91)})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if dst.T != src.T || len(dst.K) != len(src.K) {
		t.Fatalf("shape mismatch after load: T=%d kernels=%d", dst.T, len(dst.K))
	}
	for i := range src.K {
		if src.K[i] != dst.K[i] {
			t.Fatalf("kernel %d differs: %+v vs %+v", i, src.K[i], dst.K[i])
		}
	}
	// inference must be bit-identical
	for i := 0; i < 10; i++ {
		in := fixture.x.Data[i*256 : (i+1)*256]
		a := src.InferOne(in, RunConfig{EarlyFire: true}, InferOpts{})
		b := dst.InferOne(in, RunConfig{EarlyFire: true}, InferOpts{})
		if a.Pred != b.Pred || a.TotalSpikes != b.TotalSpikes {
			t.Fatalf("sample %d: loaded model diverges (pred %d/%d spikes %d/%d)",
				i, a.Pred, b.Pred, a.TotalSpikes, b.TotalSpikes)
		}
		for j := range a.Potentials {
			if a.Potentials[j] != b.Potentials[j] {
				t.Fatalf("sample %d: potentials differ at %d", i, j)
			}
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// saveWire serializes a tinyNet model and decodes it back into the wire
// struct so corruption tests can mutate individual fields.
func saveWire(t *testing.T) wireModel {
	t.Helper()
	m, err := NewModel(tinyNet(), 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wm wireModel
	if err := gob.NewDecoder(&buf).Decode(&wm); err != nil {
		t.Fatal(err)
	}
	return wm
}

// TestLoadModelRejectsCorruptFiles feeds LoadModel systematically
// corrupted wire models; every case must produce a descriptive error,
// never a gob or index panic.
func TestLoadModelRejectsCorruptFiles(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(wm *wireModel)
		errHint string
	}{
		{"wrong version", func(wm *wireModel) { wm.Version = wireVersion + 7 }, "version"},
		{"no stages", func(wm *wireModel) { wm.Stages = nil; wm.Tau = nil; wm.Td = nil }, "no stages"},
		{"kernel count mismatch", func(wm *wireModel) { wm.Tau = wm.Tau[:1] }, "kernels"},
		{"td count mismatch", func(wm *wireModel) { wm.Td = append(wm.Td, 1) }, "kernels"},
		{"non-positive input length", func(wm *wireModel) { wm.InLen = 0 }, "input length"},
		{"non-positive window", func(wm *wireModel) { wm.T = -3 }, "time window"},
		{"invalid kernel tau", func(wm *wireModel) { wm.Tau[0] = -1 }, "kernel"},
		{"unknown stage kind", func(wm *wireModel) { wm.Stages[0].Kind = 9 }, "kind"},
		{"truncated weights", func(wm *wireModel) { wm.Stages[0].W = wm.Stages[0].W[:5] }, "weights"},
		{"empty weight shape", func(wm *wireModel) { wm.Stages[0].WShape = nil }, "weights"},
		{"negative weight dim", func(wm *wireModel) { wm.Stages[0].WShape = []int{-3, -4} }, "dimension"},
		{"dense shape rank", func(wm *wireModel) {
			wm.Stages[0].WShape = []int{2, 2, 3, 1}
		}, "dense"},
		{"bias length mismatch", func(wm *wireModel) { wm.Stages[1].B = wm.Stages[1].B[:1] }, "biases"},
		{"zero neuron counts", func(wm *wireModel) { wm.Stages[0].OutLen = 0 }, "neuron counts"},
		{"invalid pool spec", func(wm *wireModel) {
			wm.Stages[0].HasPool = true
			wm.Stages[0].PoolK = 0
		}, "pool"},
		{"inconsistent stage chain", func(wm *wireModel) {
			wm.Stages[1].InLen = 7
			wm.Stages[1].WShape = []int{7, 2}
			wm.Stages[1].W = make([]float64, 14)
		}, "stage"},
		{"output flag missing", func(wm *wireModel) { wm.Stages[1].Output = false }, "Output"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wm := saveWire(t)
			tc.corrupt(&wm)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(wm); err != nil {
				t.Fatal(err)
			}
			m, err := LoadModel(&buf)
			if err == nil {
				t.Fatalf("corrupt model accepted: %+v", m)
			}
			if !strings.Contains(err.Error(), tc.errHint) {
				t.Fatalf("error %q does not mention %q", err, tc.errHint)
			}
		})
	}
}

// TestLoadModelRejectsTruncatedStreams checks every byte-level prefix
// class of a valid stream errors cleanly.
func TestLoadModelRejectsTruncatedStreams(t *testing.T) {
	m, err := NewModel(tinyNet(), 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []int{0, 1, 4, 10, 25, 50, 75, 90, 99} {
		n := len(full) * frac / 100
		if _, err := LoadModel(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("stream truncated to %d%% (%d bytes) accepted", frac, n)
		}
	}
}

func TestLoadModelRejectsWrongVersion(t *testing.T) {
	loadFixture(t)
	src := fixture.model()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// corrupt: re-encode with a bumped version by round-tripping through
	// the wire struct is overkill; instead check the validation path by
	// truncating the stream
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadModel(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestSaveLoadPreservesPools(t *testing.T) {
	loadFixture(t)
	src := fixture.model()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	foundPool := false
	for i := range dst.Net.Stages {
		if dst.Net.Stages[i].PrePool != nil {
			foundPool = true
			if *dst.Net.Stages[i].PrePool != *src.Net.Stages[i].PrePool {
				t.Fatal("pool spec changed in round trip")
			}
		}
	}
	if !foundPool {
		t.Fatal("fixture should carry pooled stages")
	}
}
