package dsp

import "math"

// Goertzel evaluates the DFT of x at a single frequency (Hz) given the
// sample rate, in O(n) time — useful for probing the discrete FSK tone
// locations without a full FFT.
func Goertzel(x []complex128, freq, sampleRate float64) complex128 {
	w := 2 * math.Pi * freq / sampleRate
	s, c := math.Sincos(-w)
	rot := complex(c, s) // e^{-jw}
	var acc complex128
	cur := complex(1, 0)
	for _, v := range x {
		acc += v * cur
		cur *= rot
	}
	return acc
}

// DominantFrequency estimates the strongest spectral component of x in Hz,
// refined by parabolic interpolation of the magnitude spectrum. It returns
// 0 for inputs shorter than 2 samples.
func DominantFrequency(x []complex128, sampleRate float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	spec := FFT(x)
	mags := Abs(spec)
	pk := MaxPeak(mags)
	frac := ParabolicInterp(mags, pk.Index)
	bin := float64(pk.Index) + frac
	if bin > float64(n)/2 {
		bin -= float64(n)
	}
	return bin * sampleRate / float64(n)
}

// EstimateCFO estimates a small residual carrier frequency offset from the
// average phase increment between consecutive samples of an (approximately)
// constant-envelope signal. Valid for |CFO| < sampleRate/2 over the
// observation, and most accurate when the underlying modulation averages
// out (e.g. over a 0101 FSK preamble or a full chirp).
func EstimateCFO(x []complex128, sampleRate float64) float64 {
	if len(x) < 2 {
		return 0
	}
	acc := Dot(x[1:], x)
	return math.Atan2(imag(acc), real(acc)) * sampleRate / (2 * math.Pi)
}

// FitGain fits the complex gain that best maps template onto rx in the
// least-squares sense, gain = <rx, template>/|template|², and returns it with
// the signal-to-noise power ratio (linear) of that fit: the fitted signal's
// energy over the residual's. Inputs of unequal length are clipped to the
// shorter. An empty input or a silent template gives (0, 0); a perfect fit
// gives +Inf.
func FitGain(rx, template []complex128) (gain complex128, snr float64) {
	n := min(len(rx), len(template))
	rx, template = rx[:n], template[:n]
	tE := Energy(template)
	if tE == 0 {
		return 0, 0
	}
	gain = Dot(rx, template) / complex(tE, 0)
	var sigE, noiseE float64
	for i := range rx {
		s := gain * template[i]
		d := rx[i] - s
		sigE += real(s)*real(s) + imag(s)*imag(s)
		noiseE += real(d)*real(d) + imag(d)*imag(d)
	}
	if noiseE == 0 {
		return gain, math.Inf(1)
	}
	return gain, sigE / noiseE
}
