// Package traffic is the deterministic request-level traffic plane: an
// open-loop, sim-clock-driven model of the requests that cause the load
// reports the rest of the simulator reacts to. Per-service arrivals
// follow the same diurnal shape the churn traces are trained on and flow
// through a front-end pipeline — token-bucket admission control with
// drop-on-overflow load shedding, per-service circuit breakers, retry
// with an exponential-backoff-plus-jitter per-service retry budget, and
// request batching. Per-request latency derives from the primary node's
// utilization and replica co-location; node crashes, quorum-loss
// windows, and mid-build failovers surface as real request errors
// journaled inside the fabric's causal brackets.
//
// Determinism mirrors internal/chaos: every random choice draws from
// streams split off one seed by fixed labels, and the engine only ever
// runs on the simulation goroutine, so a traffic run is bit-for-bit
// reproducible for a fixed seed and workload. A run with no traffic spec
// never constructs an engine at all — the fabric hot path is untouched.
package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"

	"toto/internal/obs/reqtrace"
)

// The plane's fixed model parameters. Only the knobs a scenario varies
// are in the Spec; everything below is the calibrated front end every
// workload runs.
const (
	// weekendFactor scales weekend demand (mirrors the trace models).
	weekendFactor = 0.7
	// tickSeconds is the simulation step for arrivals and admission.
	tickSeconds = 60.0
	// admitFactor provisions the front-end token bucket relative to peak
	// demand: refill rate = admitFactor * PerCoreRPS * reserved cores *
	// (up nodes / total nodes). With every node up the front end clears
	// peak load; losing a fault domain drops admission capacity below
	// peak and the overflow is shed — graceful degradation instead of
	// collapse.
	admitFactor = 1.05
	// burstTicks sizes the token bucket in ticks of refill.
	burstTicks = 2.0
	// batchSize is the dispatch batch: per-request overhead is amortized
	// across the batch.
	batchSize = 8
	// baseLatencyMs is the service-time floor of one request on an idle
	// node; overheadMs the per-request dispatch overhead a full batch
	// amortizes.
	baseLatencyMs = 4.0
	overheadMs    = 2.0
	// degradedErrorRate is the failure fraction while a service's
	// primary has a data copy in flight (mid-build failover window),
	// below the breaker threshold so ordinary rebuilds degrade without
	// tripping breakers. A healthy service never fails a request: every
	// request error traces to a fault.
	degradedErrorRate = 0.1

	// retryMaxAttempts bounds attempts per request (first try included).
	retryMaxAttempts = 3
	// retryBudgetRatio is the retry budget refill rate as a fraction of
	// fresh arrivals: a service receiving N requests earns
	// N*retryBudgetRatio retry tokens, so retries can never amplify a
	// failover storm beyond that ratio.
	retryBudgetRatio = 0.2
	// backoffMeanMs is the mean of the exponential backoff ladder
	// min(50 * 2^k, 1000) ms over the retryMaxAttempts-1 retries; a
	// successful retry waits it, jittered by ±retryJitter/2.
	backoffMeanMs = (50.0 + 100.0) / 2
	retryJitter   = 0.5

	// hedgeDelayMultiple is the standard-class hedge delay, as a multiple
	// of what the request would currently cost on the best *other*
	// replica: a request hedges only once serving it has outlived that
	// many alternate-route estimates. Anchoring the delay to the
	// alternate route self-calibrates it to cluster load — under uniform
	// load the serving and alternate routes cost about the same, so
	// nothing hedges; a fail-slow serving node crosses the multiple as
	// soon as its slowdown exceeds it. Premium requests hedge earlier.
	hedgeDelayMultiple        = 2.0
	premiumHedgeDelayMultiple = 1.5
)

// breakerConfig is the per-service circuit breaker every engine builds.
var breakerConfig = BreakerSpec{
	FailureThreshold: 0.5,
	MinRequests:      20,
	OpenSeconds:      120,
	HalfOpenProbes:   5,
}

// ClassesSpec partitions services into premium and standard traffic
// classes by their control-plane edition label: Premium/BC services are
// premium, every other service is standard. Premium services are
// admitted first each tick, so under overload the shared admission
// bucket drains in class order and standard traffic sheds before
// premium — the shed order is the admission order — and premium
// requests hedge earlier. Nil disables classes: every service is
// standard and admission runs in plain name order. Presence enables it;
// no knobs.
type ClassesSpec struct{}

// RoutingSpec enables load-aware replica routing: each tick a service
// dispatches against its least-loaded healthy replica (up, not
// quarantined, not mid-build) instead of unconditionally against its
// primary. Routing keys on reported core utilization — it is load-aware,
// not latency-aware, so a fail-slow node keeps attracting traffic until
// the gray-failure detector quarantines it; hedging covers that gap.
// Nil disables routing (primary-only dispatch). Presence enables it; no
// knobs.
type RoutingSpec struct{}

// HedgeSpec configures deterministic hedged requests: when a tick's
// modeled latency exceeds the hedge delay (hedgeDelayMultiple), requests
// launch a speculative second attempt on the least-loaded other replica
// and take whichever finishes first. The hedge budget refills only from
// fresh arrivals, so hedges can never add more than BudgetRatio of
// offered load — bounded by construction, and accounted separately from
// the retry budget. Nil disables hedging.
type HedgeSpec struct {
	// BudgetRatio is the hedge-token refill per fresh arrival, capped at
	// 0.05: hedging may never add more than 5% extra load. Default 0.02.
	BudgetRatio float64 `json:"budgetRatio,omitempty"`
}

// Spec is the JSON-configurable traffic plane. All knobs are optional;
// zero values take the documented defaults.
type Spec struct {
	// Seed drives every random choice the plane makes (arrival draws,
	// latency jitter). Two runs of the same spec, seed, and workload
	// serve identical request streams.
	Seed uint64 `json:"seed"`
	// PerCoreRPS is the peak request rate per reserved service core, so
	// demand tracks the population the cluster actually hosts. Default 1.
	PerCoreRPS float64 `json:"perCoreRPS,omitempty"`
	// Classes, Routing, and Hedge are the gray-failure resilience knobs:
	// per-service traffic classes, load-aware replica routing, and
	// deterministic hedged requests. All three default to nil — off, with
	// byte-identical behavior to a spec predating them.
	Classes *ClassesSpec `json:"classes,omitempty"`
	Routing *RoutingSpec `json:"routing,omitempty"`
	Hedge   *HedgeSpec   `json:"hedge,omitempty"`
	// SLOP99Ms is the hourly p99 latency SLO scored next to revenue.
	// Default 250.
	SLOP99Ms float64 `json:"sloP99Ms,omitempty"`
	// Reqtrace enables per-request tracing with tail-based sampling.
	// Nil (the default) keeps the plane entirely untraced: zero extra
	// allocations on the hot path and byte-identical journals.
	Reqtrace *reqtrace.Spec `json:"reqtrace,omitempty"`
}

// ParseSpec decodes and validates a JSON spec, rejecting unknown fields
// so a typoed knob fails loudly instead of silently simulating nothing.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("traffic: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's knobs. Nil-safe: a nil spec (no traffic
// plane) is valid.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.PerCoreRPS < 0 {
		return fmt.Errorf("traffic: negative perCoreRPS %v", s.PerCoreRPS)
	}
	if s.SLOP99Ms < 0 {
		return fmt.Errorf("traffic: negative sloP99Ms %v", s.SLOP99Ms)
	}
	if h := s.Hedge; h != nil && (h.BudgetRatio < 0 || h.BudgetRatio > maxHedgeBudgetRatio) {
		return fmt.Errorf("traffic: hedge budgetRatio %v outside [0, %v]", h.BudgetRatio, maxHedgeBudgetRatio)
	}
	return s.Reqtrace.Validate()
}

// withDefaults returns a copy with every zero knob resolved.
func (s *Spec) withDefaults() Spec {
	out := *s
	if out.PerCoreRPS == 0 {
		out.PerCoreRPS = 1
	}
	if out.SLOP99Ms == 0 {
		out.SLOP99Ms = 250
	}
	// The hedge sub-spec is copied before defaulting so resolving an
	// engine's spec never mutates the caller's.
	if out.Hedge != nil {
		h := *out.Hedge
		if h.BudgetRatio == 0 {
			h.BudgetRatio = 0.02
		}
		out.Hedge = &h
	}
	return out
}
