// Package channel models the over-the-air medium of the GalioT evaluation:
// additive white Gaussian noise at a calibrated SNR, per-transmitter power,
// timing offsets, carrier frequency offsets and the superposition of
// multiple simultaneous transmissions (collisions). It replaces the paper's
// physical 868 MHz testbed, following the substitution documented in
// DESIGN.md; the paper's own evaluation also stresses the system with AWGN
// at controlled SNR, so the methodology is unchanged.
package channel

import (
	"math"

	"repro/internal/dsp"
	"repro/internal/rng"
)

// Emission is one transmission placed on the channel.
type Emission struct {
	Samples []complex128 // unit-power baseband burst
	Offset  int          // start sample within the capture window
	SNRdB   float64      // per-emission SNR relative to the noise floor
	CFO     float64      // carrier frequency offset in Hz
	Phase   float64      // initial carrier phase in radians
}

// Mix renders a capture window of n samples containing all emissions over
// unit-power complex AWGN. Each emission is scaled so its average burst
// power is 10^(SNRdB/10) relative to the unit noise power, frequency-
// shifted by its CFO, rotated by its phase, and added at its offset.
//
// When noise is nil, the window is noise-free (useful for unit tests).
func Mix(n int, emissions []Emission, noise *rng.Rand, sampleRate float64) []complex128 {
	out := make([]complex128, n)
	if noise != nil {
		for i := range out {
			out[i] = noise.Complex()
		}
	}
	for _, e := range emissions {
		burst := dsp.Clone(e.Samples)
		if e.CFO != 0 || e.Phase != 0 {
			dsp.Mix(burst, e.CFO, e.Phase, sampleRate)
		}
		dsp.Scale(burst, ampFor(e.SNRdB))
		dsp.Add(out, burst, e.Offset)
	}
	return out
}

// ampFor converts an SNR in dB (vs unit noise power) to an amplitude scale
// for a unit-power burst.
func ampFor(snrDB float64) float64 {
	return math.Sqrt(dsp.FromDB(snrDB))
}

// AWGN returns n samples of unit-power circularly-symmetric complex
// Gaussian noise.
func AWGN(n int, noise *rng.Rand) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = noise.Complex()
	}
	return out
}
