package coding

import (
	"testing"

	"repro/internal/snn"
	"repro/internal/testutil"
)

// simSink keeps the benchmarked Run calls observable to the compiler.
var simSink snn.SimResult

// BenchmarkSchemeRun times one 200-step baseline-coding simulation of a
// LeNet16 fixture sample on a warm scratch, per scheme. Every scheme
// runs allocation-free in steady state.
func BenchmarkSchemeRun(b *testing.B) {
	fx := testutil.TrainedLeNet16()
	in := fx.X.Data[:256]
	for _, bc := range []struct {
		name string
		s    Scheme
	}{
		{"rate", Rate{}},
		{"rate-poisson", Rate{Poisson: true, Seed: 4}},
		{"phase", Phase{}},
		{"burst", Burst{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := RunOpts{Steps: 200, Scratch: NewScratch()}
			bc.s.Run(fx.Conv.Net, in, opts) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				simSink = bc.s.Run(fx.Conv.Net, in, opts)
			}
		})
	}
}
