package traffic

import (
	"fmt"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed passes every request and watches the failure rate.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects every request until the open window elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly the configured probe count and
	// decides from their outcomes.
	BreakerHalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// legalTransitions is the breaker state machine's full edge set. Every
// state change goes through transition(), which panics on any edge not
// listed here — the property the fuzz test hammers on.
var legalTransitions = map[[2]BreakerState]bool{
	{BreakerClosed, BreakerOpen}:     true, // trip
	{BreakerOpen, BreakerHalfOpen}:   true, // open window elapsed
	{BreakerHalfOpen, BreakerOpen}:   true, // probe failed
	{BreakerHalfOpen, BreakerClosed}: true, // probes succeeded
}

// BreakerSpec configures a circuit breaker. The engine builds every
// breaker from breakerConfig.
type BreakerSpec struct {
	// FailureThreshold is the failure fraction that trips a closed
	// breaker once a window of MinRequests has been observed.
	FailureThreshold float64
	// MinRequests is the closed-state observation window: the breaker
	// never trips on fewer outcomes.
	MinRequests int
	// OpenSeconds is how long an open breaker rejects everything before
	// letting probes through.
	OpenSeconds float64
	// HalfOpenProbes is exactly how many probe requests a half-open
	// breaker admits before deciding.
	HalfOpenProbes int
}

// Breaker is one service's circuit breaker. Closed it counts outcomes
// over tumbling windows of MinRequests and trips when the failure
// fraction reaches FailureThreshold; open it rejects everything for
// OpenSeconds; half-open it admits exactly HalfOpenProbes probe requests
// — one failed probe re-opens it, a full set of successes closes it.
// Sim-goroutine only, like everything in this package.
type Breaker struct {
	cfg   BreakerSpec
	state BreakerState

	openedAt time.Time
	openFor  time.Duration

	// closed-state tumbling window
	reqs, fails int

	// half-open probe accounting
	probesIssued int
	probeOK      int
}

// NewBreaker builds a closed breaker from cfg, clamping the window knobs
// so a zero-valued config cannot divide by zero or trip on nothing.
func NewBreaker(cfg BreakerSpec) *Breaker {
	if cfg.MinRequests < 1 {
		cfg.MinRequests = 1
	}
	if cfg.HalfOpenProbes < 1 {
		cfg.HalfOpenProbes = 1
	}
	return &Breaker{
		cfg:     cfg,
		openFor: time.Duration(cfg.OpenSeconds * float64(time.Second)),
	}
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState { return b.state }

// transition is the only way the state changes; an illegal edge is a
// bug, not a condition, and panics.
func (b *Breaker) transition(to BreakerState, now time.Time) {
	if !legalTransitions[[2]BreakerState{b.state, to}] {
		panic(fmt.Sprintf("traffic: illegal breaker transition %s -> %s", b.state, to))
	}
	b.state = to
	switch to {
	case BreakerOpen:
		b.openedAt = now
		b.reqs, b.fails = 0, 0
		b.probesIssued, b.probeOK = 0, 0
	case BreakerHalfOpen:
		b.probesIssued, b.probeOK = 0, 0
	case BreakerClosed:
		b.reqs, b.fails = 0, 0
	}
}

// Admit decides how many of n requests pass the breaker at now. An open
// breaker whose window has elapsed flips to half-open first; a half-open
// breaker admits only what remains of its probe allowance.
func (b *Breaker) Admit(now time.Time, n int) (pass, rejected int) {
	if n < 0 {
		panic("traffic: negative admit count")
	}
	if b.state == BreakerOpen && !now.Before(b.openedAt.Add(b.openFor)) {
		b.transition(BreakerHalfOpen, now)
	}
	switch b.state {
	case BreakerClosed:
		return n, 0
	case BreakerOpen:
		return 0, n
	default: // half-open
		avail := b.cfg.HalfOpenProbes - b.probesIssued
		if avail < 0 {
			avail = 0
		}
		if n < avail {
			avail = n
		}
		b.probesIssued += avail
		return avail, n - avail
	}
}

// Record feeds request outcomes back. Closed, it trips the breaker when
// a full window's failure fraction reaches the threshold; half-open, any
// failure re-opens and a complete set of successful probes closes.
func (b *Breaker) Record(now time.Time, successes, failures int) {
	if successes < 0 || failures < 0 {
		panic("traffic: negative outcome count")
	}
	switch b.state {
	case BreakerClosed:
		b.reqs += successes + failures
		b.fails += failures
		if b.reqs >= b.cfg.MinRequests {
			frac := float64(b.fails) / float64(b.reqs)
			b.reqs, b.fails = 0, 0
			if frac >= b.cfg.FailureThreshold {
				b.transition(BreakerOpen, now)
			}
		}
	case BreakerHalfOpen:
		if failures > 0 {
			b.transition(BreakerOpen, now)
			return
		}
		b.probeOK += successes
		if b.probeOK >= b.cfg.HalfOpenProbes {
			b.transition(BreakerClosed, now)
		}
	case BreakerOpen:
		// Outcomes of requests admitted before the trip; nothing to learn.
	}
}
