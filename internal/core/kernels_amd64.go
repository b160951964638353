package core

// cpuAVX reports whether the CPU has AVX and the OS saves YMM state
// across context switches: CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX),
// then XCR0 bits 1 and 2 (SSE and AVX state) from XGETBV.
var cpuAVX = func() bool {
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}()

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of extended control register XCR0.
func xgetbv0() uint32

// scatterTapsAVX is scatterTaps with step 1, four lanes per VMULPD and
// VADDPD and a scalar tail when n mod 4 ≠ 0.
//
//go:noescape
func scatterTapsAVX(pot, w []float64, taps []convTap, s float64, n int)

// indexGEAVX returns the first index i with pot[i] ≥ theta, or
// len(pot), comparing eight lanes per step (VCMPPD GE_OQ, VMOVMSKPD).
//
//go:noescape
func indexGEAVX(pot []float64, theta float64) int
