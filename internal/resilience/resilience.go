// Package resilience holds the fault-tolerance primitives the GalioT
// pipeline composes to survive a flaky edge-to-cloud link: a deterministic
// exponential backoff for reconnect loops, a bounded drop-oldest segment
// spool that keeps the detection pipeline consuming captures during a
// backhaul outage, and a deadline-arming connection wrapper so neither end
// of the backhaul can block forever on a dead peer.
//
// The paper's premise — a thin gateway shipping I/Q to a heavy cloud
// decoder — makes the backhaul the single point of failure. These
// primitives are deliberately small and policy-free: internal/gateway
// wires them into a reconnecting backhaul client (Gateway.RunResilient),
// internal/cloud wires them into the server's session reaper, and both
// report through internal/obs. See DESIGN.md §11 for the resilience model.
//
// Everything here obeys the repository's determinism rules: backoff jitter
// draws from repro/internal/rng (never math/rand), and the only wall-clock
// read in the package is the socket-deadline helper, which is explicitly
// exempted because deadlines are real-time I/O behavior, not simulation.
package resilience

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/rng"
)

// ErrKilled is the sentinel a Dial function returns to simulate SIGKILL in
// crash-recovery tests: the resilient client must abandon all process
// state in place — no degraded drain, no WAL sync or compaction — exactly
// as a killed process would, so a subsequent restart exercises the real
// recovery path.
var ErrKilled = errors.New("resilience: killed")

// Defaults for RetryPolicy fields left zero.
const (
	DefaultMaxAttempts = 5
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 5 * time.Second
	DefaultMultiplier  = 2.0
)

// RetryPolicy describes a reconnect loop: how many consecutive failures to
// tolerate and how to space the attempts. The zero value is usable and
// fills in the defaults above.
type RetryPolicy struct {
	// MaxAttempts is the number of consecutive failed attempts before the
	// caller gives up. A successful attempt resets the budget (Backoff.Reset).
	MaxAttempts int
	// BaseDelay is the nominal delay before the first retry; each further
	// consecutive failure multiplies it by Multiplier up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (>= 1).
	Multiplier float64
	// Seed seeds the jitter stream. Two Backoffs built from the same policy
	// produce the same delay sequence, so retry timing replays with the
	// rest of a simulation.
	Seed uint64
}

// withDefaults returns the policy with zero fields replaced by defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	return p
}

// Backoff tracks consecutive failures against a RetryPolicy and hands out
// jittered exponential delays. Not safe for concurrent use; a reconnect
// loop owns one.
type Backoff struct {
	pol     RetryPolicy
	gen     *rng.Rand
	attempt int
}

// NewBackoff builds a Backoff over the policy (zero fields defaulted).
func NewBackoff(p RetryPolicy) *Backoff {
	p = p.withDefaults()
	return &Backoff{pol: p, gen: rng.New(p.Seed)}
}

// Next consumes one attempt and returns the delay to sleep before retrying.
// ok is false once MaxAttempts consecutive attempts have been consumed —
// the caller should give up and surface Err. The delay is the exponential
// step with "equal jitter": uniformly drawn from [step/2, step), which
// keeps retries spread out across a fleet of gateways while preserving the
// exponential envelope.
func (b *Backoff) Next() (delay time.Duration, ok bool) {
	if b.attempt >= b.pol.MaxAttempts {
		return 0, false
	}
	step := float64(b.pol.BaseDelay)
	for i := 0; i < b.attempt; i++ {
		step *= b.pol.Multiplier
		if step >= float64(b.pol.MaxDelay) {
			step = float64(b.pol.MaxDelay)
			break
		}
	}
	b.attempt++
	half := step / 2
	return time.Duration(half + b.gen.Float64()*half), true
}

// Reset clears the consecutive-failure count after a successful attempt,
// restoring the full retry budget. The jitter stream is not rewound.
func (b *Backoff) Reset() { b.attempt = 0 }

// Attempts returns how many consecutive attempts have been consumed.
func (b *Backoff) Attempts() int { return b.attempt }

// Err summarizes an exhausted retry budget around the last failure.
func (b *Backoff) Err(last error) error {
	return fmt.Errorf("resilience: retries exhausted after %d attempts: %w", b.attempt, last)
}
