// Package phy defines the common abstractions for IoT radio technologies:
// the Technology interface every PHY implements and the modulation-class
// taxonomy that drives the choice of "kill" filter at the cloud. Gateway
// and cloud decode an explicit technology list their caller passes in.
//
// A Technology is both a transmitter (Modulate) and a receiver
// (Demodulate). Modulate produces a complex-baseband waveform at a caller-
// chosen sample rate, which keeps every PHY usable at the paper's 1 MHz
// RTL-SDR rate as well as in narrowband unit tests. Demodulate is handed a
// detector-aligned sample window (packet start near the beginning of the
// window) and returns a decoded Frame carrying fine timing and complex-gain
// estimates, which the successive-interference-cancellation engine needs to
// reconstruct and subtract the signal.
package phy

import "fmt"

// Class is a modulation family. The cloud decoder picks its cancellation
// strategy ("kill" filter) by class, not by technology, which is what lets
// GalioT scale to new technologies without new cancellation code.
type Class int

// Modulation classes from the paper's taxonomy (Sec. 5).
const (
	ClassFSK  Class = iota // frequency shift keying: energy at discrete tones
	ClassPSK               // phase shift keying: energy in a narrow center band
	ClassCSS               // chirp spread spectrum: energy swept across the band
	ClassDSSS              // direct-sequence: energy spread by orthogonal codes
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassFSK:
		return "FSK"
	case ClassPSK:
		return "PSK"
	case ClassCSS:
		return "CSS"
	case ClassDSSS:
		return "DSSS"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Frame is a decoded PHY frame together with the receiver-side estimates
// that interference cancellation needs.
type Frame struct {
	Tech      string     // technology name
	Payload   []byte     // decoded payload (MAC frame body)
	CRCOK     bool       // payload integrity check passed
	Bits      int        // number of payload bits (for throughput accounting)
	Offset    int        // sample index in the demodulated window where the frame starts
	Gain      complex128 // estimated complex channel gain
	CFO       float64    // estimated residual carrier offset in Hz (0 if not measured)
	SNRdB     float64    // estimated post-sync SNR in dB, if available
	Corrected int        // FEC corrections applied
}

// Technology is a complete PHY implementation.
type Technology interface {
	// Name returns a unique, stable identifier ("lora", "xbee", "zwave").
	Name() string
	// Class returns the modulation family, which selects the kill filter.
	Class() Class
	// Info describes the technology for the Table-1 catalog.
	Info() Info
	// BitRate returns the nominal payload bit rate in bits/s.
	BitRate() float64
	// Preamble returns the technology's preamble waveform (including any
	// sync word) at the given sample rate, normalized to unit power.
	Preamble(sampleRate float64) []complex128
	// MaxPacketSamples returns the airtime of a maximum-length frame in
	// samples at the given rate; the gateway ships 2× this around each
	// detection (Sec. 4).
	MaxPacketSamples(sampleRate float64) int
	// Modulate produces the complex-baseband waveform of a frame carrying
	// payload, at unit average power during the burst.
	Modulate(payload []byte, sampleRate float64) ([]complex128, error)
	// Demodulate decodes one frame from a window whose packet start lies
	// within the first searchWindow samples (technology-chosen default if
	// the caller passes the whole capture).
	Demodulate(rx []complex128, sampleRate float64) (*Frame, error)
}

// Info is catalog metadata used to regenerate the paper's Table 1.
type Info struct {
	Name       string
	Modulation string // e.g. "CSS", "GFSK", "BFSK"
	Sync       string // sync word description
	Preamble   string // preamble description
	MaxPayload int    // bytes
}

// ToneTechnology is implemented by FSK-class technologies; it reports the
// discrete tone offsets (Hz from center) where the modulation concentrates
// energy, which KILL-FREQUENCY notches out.
type ToneTechnology interface {
	Technology
	Tones() []float64
}

// ChirpTechnology is implemented by CSS-class technologies; KILL-CSS needs
// the chirp parameters to dechirp, notch and re-chirp.
type ChirpTechnology interface {
	Technology
	SpreadingFactor() int
	ChirpBandwidth() float64 // Hz
}

// CodedTechnology is implemented by DSSS-class technologies; KILL-CODES
// projects received samples off the code subspace.
type CodedTechnology interface {
	Technology
	ChipCodes() [][]byte // one chip sequence (0/1 values) per symbol value
	ChipRate() float64   // chips per second
}

// NarrowbandTechnology is implemented by PSK-class technologies; it reports
// the carrier position and occupied bandwidth (Hz) that KILL-FREQUENCY's
// narrowband variant removes.
type NarrowbandTechnology interface {
	Technology
	// OccupiedBandwidth is the width of the band to notch, in Hz.
	OccupiedBandwidth() float64
	// Center is the carrier offset from the capture center, in Hz.
	Center() float64
}

// Extras returns the Table-1 rows the paper lists but that are not
// implemented in this repository, for callers that assemble the catalog
// from an explicit technology list.
func Extras() []Info {
	out := make([]Info, len(table1Extras))
	copy(out, table1Extras)
	return out
}

// table1Extras are the Table-1 rows the paper lists but does not prototype.
var table1Extras = []Info{
	{Name: "ble", Modulation: "GFSK", Sync: "4 bytes", Preamble: "'01010101'"},
	{Name: "wifi-halow", Modulation: "BPSK", Sync: "configuration specific", Preamble: "configuration specific"},
	{Name: "sigfox", Modulation: "D-BPSK", Sync: "4 bytes", Preamble: "unknown"},
	{Name: "thread", Modulation: "QPSK", Sync: "4 bytes", Preamble: "binary 0s"},
	{Name: "wirelesshart", Modulation: "O-QPSK", Sync: "4 bytes", Preamble: "binary 0s"},
	{Name: "weightless", Modulation: "O-QPSK", Sync: "4 bytes", Preamble: "binary 0s"},
	{Name: "nb-iot", Modulation: "OFDMA", Sync: "LTE specific", Preamble: "LTE specific"},
}

// ErrNoFrame is returned (wrapped) by Demodulate when no decodable frame is
// present in the window.
var ErrNoFrame = fmt.Errorf("phy: no decodable frame in window")
