// Package frontend models the inexpensive RTL-SDR receiver used by the
// GalioT gateway prototype: a fixed sample rate (1 MHz in the paper), an
// automatic gain stage, 8-bit I/Q quantization, DC offset, IQ gain/phase
// imbalance and tuner frequency error. Passing the clean channel output
// through this model ensures the detector and cloud decoder operate on the
// same impaired, quantized stream a real $20 dongle produces.
package frontend

import (
	"math"

	"repro/internal/dsp"
	"repro/internal/iq"
)

// Config describes the receiver impairments.
type Config struct {
	SampleRate  float64 // Hz (1e6 in the paper's prototype)
	FreqError   float64 // residual tuner offset in Hz applied to everything received
	DCOffsetI   float64 // additive DC on the I rail (full scale = 1)
	DCOffsetQ   float64 // additive DC on the Q rail
	IQGainErr   float64 // relative gain error of Q vs I (e.g. 0.02 = 2 %)
	IQPhaseErr  float64 // quadrature phase error in radians
	Quantize    bool    // apply 8-bit cu8 quantization (RTL-SDR ADC)
	AGCTargetDB float64 // AGC output power target in dBFS (default -12)
}

// Receiver applies the impairment chain. The zero value is unusable; use
// New.
type Receiver struct {
	cfg Config
}

// New returns a Receiver. SampleRate must be positive; AGCTargetDB defaults
// to -12 dBFS.
func New(cfg Config) *Receiver {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 1e6
	}
	if cfg.AGCTargetDB == 0 {
		cfg.AGCTargetDB = -12
	}
	return &Receiver{cfg: cfg}
}

// Default returns the paper's prototype front-end: 1 MHz, 8-bit
// quantization, small DC offset, mild IQ imbalance and 500 Hz tuner error.
func Default() *Receiver {
	return New(Config{
		SampleRate: 1e6,
		FreqError:  500,
		DCOffsetI:  0.002,
		DCOffsetQ:  -0.001,
		IQGainErr:  0.01,
		IQPhaseErr: 0.01,
		Quantize:   true,
	})
}

// Ideal returns a distortion-free front-end at the given rate, for
// algorithm-isolation experiments.
func Ideal(sampleRate float64) *Receiver {
	return New(Config{SampleRate: sampleRate})
}

// Config returns the active configuration.
func (r *Receiver) Config() Config { return r.cfg }

// SampleRate returns the front-end sample rate in Hz.
func (r *Receiver) SampleRate() float64 { return r.cfg.SampleRate }

// Capture passes a clean antenna-reference signal through the impairment
// chain and returns what the host sees. The input is not modified.
func (r *Receiver) Capture(antenna []complex128) []complex128 {
	out := dsp.Clone(antenna)
	c := r.cfg
	if c.FreqError != 0 {
		dsp.Mix(out, c.FreqError, 0, c.SampleRate)
	}
	if c.IQGainErr != 0 || c.IQPhaseErr != 0 {
		// Q rail sees gain (1+g) and phase skew φ: q' = (1+g)(q cosφ + i sinφ)
		g := 1 + c.IQGainErr
		sinp, cosp := math.Sin(c.IQPhaseErr), math.Cos(c.IQPhaseErr)
		for i, v := range out {
			re, im := real(v), imag(v)
			out[i] = complex(re, g*(im*cosp+re*sinp))
		}
	}
	if c.DCOffsetI != 0 || c.DCOffsetQ != 0 {
		dc := complex(c.DCOffsetI, c.DCOffsetQ)
		for i := range out {
			out[i] += dc
		}
	}
	var gain float64 = 1
	if c.Quantize {
		// AGC: scale so the average power sits at the target, leaving
		// headroom for peaks, then quantize to 8 bits.
		p := dsp.Power(out)
		if p > 0 {
			gain = math.Sqrt(dsp.FromDB(c.AGCTargetDB) / p)
			dsp.Scale(out, gain)
		}
		out = iq.Quantize(out)
		// Undo the AGC gain so downstream algorithms see calibrated power
		// levels (the quantization noise remains, as in hardware with a
		// known gain setting).
		if gain != 0 {
			dsp.Scale(out, 1/gain)
		}
	}
	return out
}
