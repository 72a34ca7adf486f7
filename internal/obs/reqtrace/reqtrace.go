// Package reqtrace is per-request distributed tracing for the simulated
// traffic plane. Every served request group has a span sequence —
// arrival → admission → breaker decision → dispatch
// (node, utilization at dispatch) → retry backoff or hedge → completion
// or failure.
//
// Sampling is tail-based and deterministic. The sampler keeps 100% of
// failed traces (errors, sheds, breaker rejections), the first trace
// landing in each latency-histogram bucket per observation hour (so
// every non-empty bucket — the p99 bucket of an SLO-violating hour
// included — carries an exemplar), and 1-in-N successes drawn from a
// dedicated internal/rng stream split off the traffic seed. Because the
// stream is independent and the decision order is fixed by the
// simulation goroutine, a traced run is bit-reproducible and the
// modeled request stream is bit-identical to the untraced run.
//
// The decision needs only the outcome, the bucket state and that one
// draw, so the engine decides first (Recorder.Decide) and builds
// nothing for a dropped group. A kept group is stored as a fixed
// Record, from which each of the six span sequences follows;
// Record.AppendSpans renders them for the journal encoder and /traces.
//
// The engine is aggregate — it serves request groups, not individual
// requests — so one trace represents Count requests that took the same
// path at the same modeled latency. Kept traces are encoded into the
// journal's annotation Detail field (see AppendDetail) inside the same
// causal bracket as the failure they describe, so a trace's root cause
// is exactly the journal's attribution for the incident.
package reqtrace

import (
	"fmt"
	"sync"

	"toto/internal/rng"
)

// Span names the engine emits, in path order.
const (
	SpanArrival   = "arrival"
	SpanAdmission = "admission"
	SpanBreaker   = "breaker"
	SpanDispatch  = "dispatch"
	SpanBackoff   = "retry-backoff"
	SpanComplete  = "complete"
	SpanError     = "error"
	SpanShed      = "shed"
	SpanReject    = "breaker-reject"
	// SpanHedge marks a hedged dispatch: the speculative second attempt a
	// tail request launched after its hedge delay. Zero duration when the
	// original attempt still won the race.
	SpanHedge = "hedge"
)

// Outcome classifies how a request group ended.
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeError
	OutcomeShed
	OutcomeRejected
)

var outcomeNames = [...]string{"ok", "error", "shed", "breaker-rejected"}

// String returns the stable wire name of the outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome-%d", int(o))
}

// ParseOutcome inverts String.
func ParseOutcome(s string) (Outcome, bool) {
	for i, name := range outcomeNames {
		if s == name {
			return Outcome(i), true
		}
	}
	return 0, false
}

// Failed reports whether the outcome is a user-visible failure. Failed
// outcomes are always kept by the sampler — that is the tail-based
// sampling contract, fuzz-tested in this package.
func (o Outcome) Failed() bool { return o != OutcomeOK }

// Span is one step of a request group's path. StartMs and DurMs are
// offsets from the group's arrival, in modeled milliseconds. Node and
// Util are set on dispatch spans only: the primary's host node and its
// core utilization at dispatch time.
type Span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
	Node    string  `json:"node,omitempty"`
	Util    float64 `json:"util,omitempty"`
}

// Trace is one kept request group with its spans, as /traces serves it
// and DecodeDetail parses it: Count requests that took the same path
// through the front end at the same modeled latency.
type Trace struct {
	ID        uint64  `json:"-"`
	IDHex     string  `json:"id"`
	Time      int64   `json:"t"` // arrival, Unix nanoseconds of sim time
	Service   string  `json:"service"`
	Outcome   Outcome `json:"-"`
	OutcomeS  string  `json:"outcome"`
	Count     int64   `json:"count"`
	LatencyMs float64 `json:"latencyMs"`
	Retries   int     `json:"retries,omitempty"`
	Spans     []Span  `json:"spans"`
}

// IDString formats a trace ID the way every surface prints it: 16
// lower-case hex digits.
func IDString(id uint64) string { return string(appendID(make([]byte, 0, 16), id)) }

// appendID is IDString onto buf, without allocating.
func appendID(buf []byte, id uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		buf = append(buf, digits[id>>shift&0xf])
	}
	return buf
}

// TraceID derives the deterministic ID of a trace from its identity:
// the sampler seed, arrival time, service, outcome, and the group's
// index within the tick. FNV-1a over the fields — stable across runs,
// platforms, and worker counts.
func TraceID(seed uint64, t int64, service string, outcome Outcome, group int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(seed)
	mix(uint64(t))
	for i := 0; i < len(service); i++ {
		h ^= uint64(service[i])
		h *= prime64
	}
	mix(uint64(outcome))
	mix(uint64(group))
	return h
}

// Spec is the JSON-configurable sampler policy, carried inside the
// traffic spec's "reqtrace" section. A nil Spec means tracing is off:
// no recorder is constructed and the traffic hot path is untouched.
type Spec struct {
	// SampleOneIn keeps one in this many successful request groups on
	// top of the always-kept failures and per-bucket exemplars.
	// Default 1000.
	SampleOneIn int `json:"sampleOneIn,omitempty"`
	// RingSize bounds the in-memory ring of kept traces served by the
	// live /traces endpoint. Default 512.
	RingSize int `json:"ringSize,omitempty"`
}

// Validate checks the spec's knobs. Nil-safe: nil means tracing off.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.SampleOneIn < 0 {
		return fmt.Errorf("reqtrace: negative sampleOneIn %d", s.SampleOneIn)
	}
	if s.RingSize < 0 {
		return fmt.Errorf("reqtrace: negative ringSize %d", s.RingSize)
	}
	return nil
}

// withDefaults resolves zero knobs.
func (s *Spec) withDefaults() Spec {
	out := *s
	if out.SampleOneIn == 0 {
		out.SampleOneIn = 1000
	}
	if out.RingSize == 0 {
		out.RingSize = 512
	}
	return out
}

// Stats are the sampler's counters, folded into fleet fingerprints only
// when tracing is enabled so traced and untraced fleets never share a
// digest space by accident.
type Stats struct {
	Considered   int64 // request groups offered to the sampler
	Kept         int64 // traces kept, all policies combined
	KeptErrors   int64 // kept because the group errored
	KeptSheds    int64 // kept because the group was shed
	KeptRejected int64 // kept because a breaker rejected the group
	KeptExemplar int64 // kept as the first trace in a latency bucket
	KeptSampled  int64 // kept by the 1-in-N success draw
	Dropped      int64 // successful groups the sampler let go
}

// Sampler makes tail-based keep decisions. It must only be used from
// the simulation goroutine; its draws come from a stream split off the
// traffic seed so enabling tracing cannot perturb the modeled plane.
type Sampler struct {
	oneIn int
	rnd   *rng.Source
	stats Stats
}

// NewSampler builds a sampler with the resolved spec and its own rng
// stream.
func NewSampler(spec Spec, rnd *rng.Source) *Sampler {
	return &Sampler{oneIn: spec.SampleOneIn, rnd: rnd}
}

// Keep decides whether a completed trace is kept. Failed outcomes are
// always kept. Successful groups are kept when they are the first to
// land in their latency bucket this hour (bucketFirst — the exemplar
// guarantee) or when the 1-in-N draw selects them; the draw happens for
// every successful group so the decision stream depends only on the
// deterministic group order, never on bucket state.
func (s *Sampler) Keep(outcome Outcome, bucketFirst bool) bool {
	s.stats.Considered++
	if outcome.Failed() {
		s.stats.Kept++
		switch outcome {
		case OutcomeError:
			s.stats.KeptErrors++
		case OutcomeShed:
			s.stats.KeptSheds++
		case OutcomeRejected:
			s.stats.KeptRejected++
		}
		return true
	}
	sampled := s.rnd != nil && s.oneIn > 0 && s.rnd.Intn(s.oneIn) == 0
	switch {
	case bucketFirst:
		s.stats.Kept++
		s.stats.KeptExemplar++
	case sampled:
		s.stats.Kept++
		s.stats.KeptSampled++
	default:
		s.stats.Dropped++
		return false
	}
	return true
}

// Stats returns a copy of the sampler's counters.
func (s *Sampler) Stats() Stats { return s.stats }

// Record is a kept request group stored as its fixed shape: the
// outcome and the few numbers its whole span sequence follows from. The
// ring and the journal encoder work from records, so a kept trace has
// no span list until /traces asks for one.
type Record struct {
	ID           uint64
	Time         int64 // arrival, Unix nanoseconds of sim time
	Service      string
	Outcome      Outcome
	Count        int64
	LatencyMs    float64
	Retries      int
	BackoffMs    float64 // a rescued retry's wait before dispatch (unhedged successes)
	HedgeDelayMs float64 // when a hedged group's speculative attempt launched
	Hedged, Won  bool    // the group raced a hedge; the hedge finished first
	Node         string  // the dispatch span's host node
	Util         float64 // and its core utilization at dispatch time
}

// maxSpans is the longest shape: a success with a backoff or a hedge.
const maxSpans = 6

// AppendSpans appends the record's spans to dst in path order. It is
// the one definition of the six shapes — shed, breaker-rejected, error,
// success (with or without a retry backoff), hedged win and hedged
// loss — and keeps the float expressions the engine once assembled
// spans with, so the rendered and encoded bytes are those of the span
// lists it replaced.
func (r *Record) AppendSpans(dst []Span) []Span {
	dst = append(dst, Span{Name: SpanArrival}, Span{Name: SpanAdmission})
	switch r.Outcome {
	case OutcomeShed:
		return append(dst, Span{Name: SpanShed})
	case OutcomeRejected:
		return append(dst, Span{Name: SpanBreaker}, Span{Name: SpanReject})
	case OutcomeError:
		return append(dst, Span{Name: SpanBreaker},
			Span{Name: SpanDispatch, DurMs: r.LatencyMs, Node: r.Node, Util: r.Util},
			Span{Name: SpanError, StartMs: r.LatencyMs})
	}
	dst = append(dst, Span{Name: SpanBreaker})
	v := r.LatencyMs
	switch {
	case r.Hedged && r.Won:
		dst = append(dst, Span{Name: SpanDispatch, DurMs: r.HedgeDelayMs, Node: r.Node, Util: r.Util},
			Span{Name: SpanHedge, StartMs: r.HedgeDelayMs, DurMs: v - r.HedgeDelayMs})
	case r.Hedged:
		// Launched, but beaten by the original attempt.
		dst = append(dst, Span{Name: SpanDispatch, DurMs: v, Node: r.Node, Util: r.Util},
			Span{Name: SpanHedge, StartMs: r.HedgeDelayMs})
	default:
		svcMs := v - r.BackoffMs
		if svcMs < 0 {
			svcMs = 0
		}
		if r.BackoffMs > 0 {
			// A rescued retry: the first attempt's failure is folded into
			// the backoff wait, then the successful attempt dispatches.
			dst = append(dst, Span{Name: SpanBackoff, DurMs: r.BackoffMs})
		}
		dst = append(dst, Span{Name: SpanDispatch, StartMs: r.BackoffMs, DurMs: svcMs, Node: r.Node, Util: r.Util})
	}
	return append(dst, Span{Name: SpanComplete, StartMs: v})
}

// Trace renders the record with its spans, as /traces serves it.
func (r *Record) Trace() Trace {
	return Trace{
		ID: r.ID, IDHex: IDString(r.ID), Time: r.Time, Service: r.Service,
		Outcome: r.Outcome, OutcomeS: r.Outcome.String(), Count: r.Count,
		LatencyMs: r.LatencyMs, Retries: r.Retries,
		Spans: r.AppendSpans(make([]Span, 0, maxSpans)),
	}
}

// Recorder makes the keep decision for each request group and retains
// kept ones in a bounded ring for the live /traces endpoint. Decide and
// Keep run on the simulation goroutine only; the ring is mutex-guarded
// so an HTTP goroutine may snapshot it mid-run.
type Recorder struct {
	spec    Spec
	sampler *Sampler
	seed    uint64

	mu   sync.Mutex
	ring []Record
	next int
}

// NewRecorder validates the spec and builds an unbound recorder. Bind
// must be called (the traffic engine does) before traces are recorded.
func NewRecorder(spec *Spec) (*Recorder, error) {
	if spec == nil {
		return nil, fmt.Errorf("reqtrace: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	resolved := spec.withDefaults()
	return &Recorder{
		spec: resolved,
		ring: make([]Record, 0, resolved.RingSize),
	}, nil
}

// Bind attaches the sampler's rng stream and the seed that derives
// trace IDs. Called once by the traffic engine at construction.
func (r *Recorder) Bind(seed uint64, rnd *rng.Source) {
	r.seed = seed
	r.sampler = NewSampler(r.spec, rnd)
}

// Decide runs the tail-based keep decision for the next request group
// (see Sampler.Keep). It needs only the outcome and the bucket state,
// so callers decide before building anything: a dropped group costs
// this call and nothing else.
func (r *Recorder) Decide(outcome Outcome, bucketFirst bool) bool {
	return r.sampler.Keep(outcome, bucketFirst)
}

// Keep stores a group Decide kept. It sets tr.ID from the recorder
// seed, tr's arrival time, service and outcome, and group — the
// trace's index within its (time, service) tick, so IDs stay unique
// when one tick emits several groups — and copies tr into the ring.
func (r *Recorder) Keep(group int, tr *Record) {
	tr.ID = TraceID(r.seed, tr.Time, tr.Service, tr.Outcome, group)
	r.mu.Lock()
	if len(r.ring) < r.spec.RingSize {
		r.ring = append(r.ring, *tr)
	} else {
		r.ring[r.next] = *tr
		r.next = (r.next + 1) % r.spec.RingSize
	}
	r.mu.Unlock()
}

// Stats returns the sampler counters. Safe to call from any goroutine
// once the run has stopped; mid-run callers get a racy-but-consistent
// snapshot via the ring mutex.
func (r *Recorder) Stats() Stats {
	if r.sampler == nil {
		return Stats{}
	}
	return r.sampler.Stats()
}

// Query filters a ring snapshot.
type Query struct {
	Service string  // exact match when non-empty
	Outcome string  // outcome name when non-empty
	MinMs   float64 // minimum latency
	Limit   int     // max traces returned (0 = all)
	Slowest bool    // sort by latency descending instead of arrival order
}

// Snapshot renders the kept-trace ring, oldest first, applying the
// query. Safe for concurrent use with the simulation goroutine.
func (r *Recorder) Snapshot(q Query) []Trace {
	r.mu.Lock()
	sel := make([]Record, 0, len(r.ring))
	appendIf := func(tr *Record) {
		if q.Service != "" && tr.Service != q.Service {
			return
		}
		if q.Outcome != "" && tr.Outcome.String() != q.Outcome {
			return
		}
		if tr.LatencyMs < q.MinMs {
			return
		}
		sel = append(sel, *tr)
	}
	for i := r.next; i < len(r.ring); i++ {
		appendIf(&r.ring[i])
	}
	for i := 0; i < r.next; i++ {
		appendIf(&r.ring[i])
	}
	r.mu.Unlock()
	if q.Slowest {
		for i := 1; i < len(sel); i++ { // insertion sort: rings are small
			for j := i; j > 0 && sel[j].LatencyMs > sel[j-1].LatencyMs; j-- {
				sel[j], sel[j-1] = sel[j-1], sel[j]
			}
		}
	}
	if q.Limit > 0 && len(sel) > q.Limit {
		if q.Slowest {
			sel = sel[:q.Limit]
		} else {
			sel = sel[len(sel)-q.Limit:] // newest when in arrival order
		}
	}
	out := make([]Trace, len(sel))
	for i := range sel {
		out[i] = sel[i].Trace()
	}
	return out
}
