package traffic

import (
	"fmt"
	"sync"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs"
	"toto/internal/obs/journal"
	"toto/internal/obs/reqtrace"
	"toto/internal/obs/timeseries"
	"toto/internal/rng"
	"toto/internal/simclock"
	"toto/internal/trace"
)

// Annotation kinds the engine emits into the causal journal. None of
// them are anchors (journal.AnchorClass returns "" for all of them), so
// traffic annotations are always leaves chaining back to the fault that
// explains them — never to each other's consequences.
const (
	KindRequestShed          = "request-shed"
	KindBreakerOpen          = "breaker-open"
	KindBreakerHalfOpen      = "breaker-half-open"
	KindBreakerClosed        = "breaker-closed"
	KindRetryBudgetExhausted = "retry-budget-exhausted"
	KindRequestErrors        = "request-errors"
	// KindRequestHedged counts one tick's granted hedges for a service
	// (Value granted, Limit desired, Detail the hedge-target node);
	// KindHedgeBudgetExhausted the hedges the budget refused. Both exist
	// only when hedging is configured and chain to the incident that
	// slowed the primary path — a fail-slow injection roots the burst at
	// chaos.
	KindRequestHedged        = "request-hedged"
	KindHedgeBudgetExhausted = "hedge-budget-exhausted"
	// KindRequestTrace carries one kept request trace (reqtrace wire
	// format in Detail); KindTraceHour closes each observation hour with
	// its p99 verdict and the p99 bucket's exemplar. Both exist only when
	// request tracing is enabled and are deliberately absent from the
	// golden traffic-annotation hash — the traced stream has its own.
	KindRequestTrace = "request-trace"
	KindTraceHour    = "request-trace-hour"
)

// PromHistogramName is the registry name the engine's latency histogram
// exports under when RegisterProm attaches it to a metrics registry.
const PromHistogramName = "traffic.latency_ms"

// Timeseries the engine pushes hourly into the run's series store.
const (
	SeriesLatencyP50  = "traffic.latency.p50_ms"
	SeriesLatencyP99  = "traffic.latency.p99_ms"
	SeriesLatencyP999 = "traffic.latency.p999_ms"
	SeriesErrorRate   = "traffic.error.rate"
	SeriesRequests    = "traffic.requests.delta"
	SeriesErrors      = "traffic.errors.delta"
	SeriesShed        = "traffic.shed.delta"
)

const (
	// anchorHorizon is how far back a causal anchor may be and still
	// explain a shed, breaker trip, or request error.
	anchorHorizon = 2 * time.Hour
	// budgetBurstTicks sizes the retry-token bucket in ticks of refill.
	budgetBurstTicks = 4
	// colocLatencyFactor is the per-co-located-replica latency tax on the
	// primary's node (noisy neighbours on a dense node).
	colocLatencyFactor = 0.01
)

// anchorRank orders anchor classes by how exceptional they are, mirroring
// the alert engine: a chaos injection outranks the violations cascading
// from it, so request errors chain to the true incident.
var anchorRank = []string{
	"chaos", "crash", "quorum", "upgrade", "drain", "forced", "resize",
	"violation", "balance",
}

// anchor is the most recent causal anchor seen for one class.
type anchor struct {
	seq  uint64
	kind fabric.CauseKind
	time time.Time
}

// Stats summarizes the plane's activity for the run result.
type Stats struct {
	Arrivals        int64 // open-loop requests generated
	Admitted        int64 // past the front-end token bucket
	Queued          int64 // tick-end queue occupancy, summed
	Shed            int64 // dropped on admission overflow
	BreakerRejected int64 // rejected by an open breaker
	Dispatched      int64 // attempts sent to backends, retries included
	Retries         int64 // retry attempts granted by the budget
	RetriesDenied   int64 // retry attempts the budget refused
	Hedges          int64 // hedged attempts granted by the hedge budget
	HedgesDenied    int64 // hedged attempts the hedge budget refused
	HedgeWins       int64 // hedges whose speculative attempt finished first
	Errors          int64 // dispatched requests that finally failed
	Failed          int64 // user-visible failures: shed + rejected + errors
	Batches         int64 // dispatch batches

	BreakerOpens     int
	BreakerHalfOpens int
	BreakerCloses    int

	HoursObserved     int
	SLOViolationHours int // hours whose p99 exceeded the SLO
	SLOP99Ms          float64

	ErrorRate            float64 // Failed / Arrivals
	P50Ms, P99Ms, P999Ms float64 // whole-run latency quantiles

	// Reqtrace holds the tail sampler's counters; nil unless request
	// tracing was enabled for the run.
	Reqtrace *reqtrace.Stats
}

// svcState is one service's front-end state.
type svcState struct {
	br          *Breaker
	retryTokens float64
	// hedge is the service's hedge budget — a separate bucket from
	// retryTokens by design: hedges and retries may never trade tokens.
	hedge  hedgeBudget
	queued int
	// openSeq/openKind chain the breaker lifecycle: the open annotation's
	// journal seq and root cause, so half-open and closed chain to it.
	openSeq  uint64
	openKind fabric.CauseKind
}

// Engine drives the traffic plane on the simulation clock. It must only
// be used from the simulation goroutine. Construct with NewEngine and
// call Start at the measured window's opening; the engine is inert until
// then, and a run without a Spec never constructs one at all.
type Engine struct {
	clock   *simclock.Clock
	cluster *fabric.Cluster
	spec    Spec // resolved: no zero knobs
	store   *timeseries.Store
	o       *obs.Obs

	// One independent stream per randomness channel, so an error draw can
	// never perturb an arrival count.
	arrivalRnd *rng.Source
	errorRnd   *rng.Source
	latencyRnd *rng.Source

	tickEvery time.Duration
	tokens    float64
	svc       map[string]*svcState
	anchors   map[string]anchor

	ticker  *simclock.Ticker
	flusher *simclock.Ticker
	started bool

	// premiumBuf and standardBuf are tick's reused per-class sweep
	// buffers.
	premiumBuf, standardBuf []*fabric.Service

	stats    Stats
	hourHist hist
	runHist  hist

	hourArrivals int64
	hourFailed   int64
	hourShed     int64

	// Request tracing (nil when disabled — every trace call site below is
	// nil-guarded, so the disabled hot path allocates nothing extra).
	rec        *reqtrace.Recorder
	traceGroup int     // per-serveOne group counter, part of the trace ID
	detailBuf  []byte  // reused wire-encoding buffer
	lastNode   string  // serving node at the last latencyMs call
	lastUtil   float64 // serving node utilization at the last latencyMs call

	// Fail-slow hook (nil when no chaos fail-slow view is attached).
	slowFn func(node string, now time.Time) float64

	// Per-serveOne hedge scratch: the class hedge delay and the
	// speculative path's modeled latency and target node, set by
	// latencyMs when hedging is configured and a second replica exists.
	// curHedge is non-nil only while the current tick qualifies for
	// hedging; the tick counters feed the per-tick annotations.
	hedgeDelayMs  float64
	hedgeAltMs    float64
	hedgeAltNode  string
	curHedge      *svcState
	tickHedges    int64
	tickHedgeDeny int64
	tickHedgeWins int64

	// Prometheus export: flush publishes an immutable snapshot under
	// promMu; the registry's provider callback may read it from any
	// goroutine serving /metrics.
	promOn   bool
	promMu   sync.Mutex
	promSnap obs.HistogramSnapshot
}

// NewEngine builds an engine for the given cluster. The spec is
// validated and its defaults resolved; store may be nil (no series are
// recorded then). rec is the request-trace recorder to feed; pass nil
// to let the engine build one from spec.Reqtrace (or run untraced when
// that is nil too). The recorder's sampler is seeded from a dedicated
// split of the traffic seed, so enabling tracing never perturbs the
// arrival, error, or latency streams.
func NewEngine(clock *simclock.Clock, cluster *fabric.Cluster, spec *Spec, store *timeseries.Store, o *obs.Obs, rec *reqtrace.Recorder) (*Engine, error) {
	if spec == nil {
		return nil, fmt.Errorf("traffic: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	resolved := spec.withDefaults()
	root := rng.New(resolved.Seed)
	if rec == nil && resolved.Reqtrace != nil {
		var err error
		if rec, err = reqtrace.NewRecorder(resolved.Reqtrace); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		clock:      clock,
		cluster:    cluster,
		spec:       resolved,
		store:      store,
		o:          o,
		arrivalRnd: root.Split("arrivals"),
		errorRnd:   root.Split("errors"),
		latencyRnd: root.Split("latency"),
		tickEvery:  time.Duration(resolved.TickSeconds * float64(time.Second)),
		svc:        make(map[string]*svcState),
		anchors:    make(map[string]anchor),
		rec:        rec,
	}
	if rec != nil {
		rec.Bind(resolved.Seed, root.Split("reqtrace"))
		e.hourHist.enableExemplars()
		e.runHist.enableExemplars()
	}
	return e, nil
}

// Start subscribes to the cluster's causal streams (anchor tracking,
// service-drop cleanup) and begins ticking. Idempotent.
func (e *Engine) Start(from time.Time) {
	if e.started {
		return
	}
	e.started = true
	e.cluster.SubscribeAnnotations(e.onAnnotation)
	e.cluster.Subscribe(e.onEvent)
	e.ticker = e.clock.Every(e.tickEvery, e.tick)
	e.flusher = e.clock.Every(time.Hour, e.flush)
	e.o.Instant("traffic.start",
		obs.I64("seed", int64(e.spec.Seed)),
		obs.Float("per_core_rps", e.spec.PerCoreRPS),
	)
}

// Stop halts the tickers. The subscriptions stay attached (the fabric
// has no unsubscribe) but see no further simulated time.
func (e *Engine) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
	if e.flusher != nil {
		e.flusher.Stop()
		e.flusher = nil
	}
	if e.promOn {
		e.promUpdate() // fold the final partial hour into /metrics
	}
}

// Stats returns the plane's totals so far, with whole-run latency
// quantiles and the partial hour folded in.
func (e *Engine) Stats() Stats {
	st := e.stats
	comb := e.runHist
	comb.merge(&e.hourHist)
	st.P50Ms = comb.quantile(0.50)
	st.P99Ms = comb.quantile(0.99)
	st.P999Ms = comb.quantile(0.999)
	st.Failed = st.Shed + st.BreakerRejected + st.Errors
	if st.Arrivals > 0 {
		st.ErrorRate = float64(st.Failed) / float64(st.Arrivals)
	}
	st.SLOP99Ms = e.spec.SLOP99Ms
	if e.rec != nil {
		rs := e.rec.Stats()
		st.Reqtrace = &rs
	}
	return st
}

// Recorder exposes the engine's trace recorder (nil when tracing is
// off) so serving layers can query the kept-trace ring.
func (e *Engine) Recorder() *reqtrace.Recorder { return e.rec }

// onAnnotation tracks causal anchors, mirroring the alert engine. The
// traffic plane's own annotations are not anchors (AnchorClass returns
// "" for them), so a shed can never be "explained" by another shed.
func (e *Engine) onAnnotation(a fabric.Annotation) {
	class := journal.AnchorClass(a.Kind)
	if class == "" {
		return
	}
	kind := a.Cause
	if kind == fabric.CauseNone {
		if k, ok := fabric.ParseCause(class); ok {
			kind = k
		}
	}
	e.anchors[class] = anchor{seq: a.Seq, kind: kind, time: a.Time}
}

// onEvent drops per-service state when the service goes away.
func (e *Engine) onEvent(ev fabric.Event) {
	if ev.Kind == fabric.EventServiceDropped && ev.Service != nil {
		delete(e.svc, ev.Service.Name)
	}
}

// bestAnchor returns the most exceptional anchor within the horizon.
func (e *Engine) bestAnchor(now time.Time) (uint64, fabric.CauseKind) {
	for _, class := range anchorRank {
		a, ok := e.anchors[class]
		if ok && now.Sub(a.time) <= anchorHorizon {
			return a.seq, a.kind
		}
	}
	return 0, fabric.CauseNone
}

// annotate emits one traffic annotation bracketed to the given cause.
func (e *Engine) annotate(kind string, now time.Time, svc string, value, limit float64, detail string, causeSeq uint64, causeKind fabric.CauseKind) uint64 {
	prev := e.cluster.BeginCause(causeKind, causeSeq)
	seq := e.cluster.Annotate(fabric.Annotation{
		Kind:    kind,
		Time:    now,
		Service: svc,
		Value:   value,
		Limit:   limit,
		Detail:  detail,
	})
	e.cluster.EndCause(prev)
	return seq
}

// tick is one admission round: refill the front-end token bucket from
// the surviving node fraction, then serve every live service in the
// cluster's deterministic name order, premium class first.
func (e *Engine) tick(now time.Time) {
	shape := trace.DiurnalShape(now.Hour())
	if wd := now.Weekday(); wd == time.Saturday || wd == time.Sunday {
		shape *= e.spec.WeekendFactor
	}

	// One snapshot of the live services per tick: sum their reserved
	// cores and classify each once, both in name order. Without traffic
	// classes every service is standard.
	reserved := 0.0
	premium, standard := e.premiumBuf[:0], e.standardBuf[:0]
	e.cluster.EachLiveService(func(s *fabric.Service) {
		reserved += s.TotalReservedCores()
		if e.isPremium(s) {
			premium = append(premium, s)
		} else {
			standard = append(standard, s)
		}
	})
	upFrac := 1.0
	if n := len(e.cluster.Nodes()); n > 0 {
		upFrac = float64(e.cluster.UpNodes()) / float64(n)
	}
	// The front end is provisioned for peak demand; losing nodes shrinks
	// it proportionally, which is where graceful degradation comes from:
	// overflow is shed at the door instead of melting the survivors.
	refill := e.spec.AdmitFactor * e.spec.PerCoreRPS * reserved * upFrac * e.spec.TickSeconds
	e.tokens += refill
	if burst := refill * e.spec.BurstTicks; e.tokens > burst {
		e.tokens = burst
	}

	// Premium services admit first, so the shared token bucket drains in
	// class order and overload sheds standard traffic before premium —
	// the shed order is the admission order.
	for _, s := range premium {
		e.serveOne(now, s, shape, true)
	}
	for _, s := range standard {
		e.serveOne(now, s, shape, false)
	}
	e.premiumBuf, e.standardBuf = premium[:0], standard[:0]
}

// serveOne runs one service's tick: open-loop arrivals, admission with
// bounded queueing and shedding, the circuit breaker, dispatch against
// the service's serving state, budgeted retries, and latency accounting.
// premium is the service's traffic class, as isPremium resolved it.
func (e *Engine) serveOne(now time.Time, s *fabric.Service, shape float64, premium bool) {
	st := e.svc[s.Name]
	if st == nil {
		st = &svcState{br: NewBreaker(e.spec.Breaker)}
		e.svc[s.Name] = st
	}
	// Trace group indices restart per (tick, service) so trace IDs —
	// hashed over (seed, time, service, outcome, group) — stay unique.
	e.traceGroup = 0
	e.lastNode, e.lastUtil = "", 0
	e.curHedge = nil
	e.tickHedges, e.tickHedgeDeny, e.tickHedgeWins = 0, 0, 0

	mean := e.spec.PerCoreRPS * s.TotalReservedCores() * shape * e.spec.TickSeconds
	n := 0
	if mean > 0 {
		n = e.arrivalRnd.Poisson(mean)
	}
	e.stats.Arrivals += int64(n)
	e.hourArrivals += int64(n)

	// Admission: requests queued last tick drain first, then fresh
	// arrivals; overflow beyond the bounded queue is shed — journaled,
	// never silent.
	waited := st.queued
	demand := waited + n
	take := demand
	if t := int(e.tokens); t < take {
		take = t
	}
	e.tokens -= float64(take)
	overflow := demand - take
	st.queued = overflow
	depth := e.spec.QueueDepth
	if premium {
		// The premium admission weight: a deeper overflow queue, so
		// premium spillover waits out a burst that sheds standard load.
		depth = int(float64(depth) * e.spec.Classes.PremiumWeight)
	}
	if st.queued > depth {
		st.queued = depth
	}
	if shed := overflow - st.queued; shed > 0 {
		e.stats.Shed += int64(shed)
		e.hourShed += int64(shed)
		e.hourFailed += int64(shed)
		aSeq, aKind := e.bestAnchor(now)
		e.annotate(KindRequestShed, now, s.Name, float64(shed), float64(demand), "admission-overflow", aSeq, aKind)
		if e.rec != nil {
			e.traceFail(now, s.Name, reqtrace.OutcomeShed, int64(shed), 0, aSeq, aKind)
		}
	}
	e.stats.Queued += int64(st.queued)
	e.stats.Admitted += int64(take)

	// Circuit breaker: an open breaker whose window elapsed flips to
	// half-open inside Admit and lets exactly the probe count through.
	preAdmit := st.br.State()
	pass, rejected := st.br.Admit(now, take)
	postAdmit := st.br.State()
	if postAdmit == BreakerHalfOpen && preAdmit == BreakerOpen {
		e.stats.BreakerHalfOpens++
		st.openSeq = e.annotate(KindBreakerHalfOpen, now, s.Name,
			float64(e.spec.Breaker.HalfOpenProbes), 0, "probing", st.openSeq, st.openKind)
	}
	if rejected > 0 {
		e.stats.BreakerRejected += int64(rejected)
		e.hourFailed += int64(rejected)
		if e.rec != nil {
			aSeq, aKind := e.bestAnchor(now)
			e.traceFail(now, s.Name, reqtrace.OutcomeRejected, int64(rejected), 0, aSeq, aKind)
		}
	}

	// Dispatch: the serving state is the fabric's error-surfacing hook —
	// crashes, quorum loss, and mid-build failovers become failures here.
	health := s.ServingStateAt(now)
	fail := 0
	switch health {
	case fabric.ServingDown:
		fail = pass
	case fabric.ServingDegraded:
		fail = int(float64(pass)*e.spec.DegradedErrorRate + 0.5)
	default:
		if e.spec.BaseErrorRate > 0 && pass > 0 {
			fail = e.errorRnd.Poisson(float64(pass) * e.spec.BaseErrorRate)
			if fail > pass {
				fail = pass
			}
		}
	}
	e.stats.Dispatched += int64(pass)

	var meanMs float64
	if pass > 0 {
		meanMs = e.latencyMs(s, pass, now, premium)
		if e.cluster.SlowNodeDetectionEnabled() {
			e.feedSlowNodeDetector(s, now)
		}
	}

	// Hedging: the budget refills from fresh arrivals only (like the
	// retry budget, but a strictly separate bucket), and the tick
	// qualifies once its modeled mean outlives the class hedge delay —
	// per-cell grants happen inside observe, where the latency spread is
	// known. Consumes no randomness.
	if e.spec.Hedge != nil {
		st.hedge.refill(n, mean, e.spec.Hedge.BudgetRatio)
		if e.hedgeDelayMs > 0 && meanMs > e.hedgeDelayMs {
			e.curHedge = st
		}
	}

	// Retries: the budget refills from fresh arrivals only, so a retry
	// storm is capped at BudgetRatio of offered load — no amplification.
	st.retryTokens += float64(n) * e.spec.Retry.BudgetRatio
	if limit := mean*e.spec.Retry.BudgetRatio*budgetBurstTicks + 1; st.retryTokens > limit {
		st.retryTokens = limit
	}
	desired := fail * (e.spec.Retry.MaxAttempts - 1)
	granted := desired
	if g := int(st.retryTokens); g < granted {
		granted = g
	}
	st.retryTokens -= float64(granted)
	if short := desired - granted; short > 0 {
		e.stats.RetriesDenied += int64(short)
		aSeq, aKind := e.bestAnchor(now)
		e.annotate(KindRetryBudgetExhausted, now, s.Name, float64(short), float64(desired), "", aSeq, aKind)
	}
	e.stats.Retries += int64(granted)
	e.stats.Dispatched += int64(granted)

	// Retries rescue transient failures (a degraded primary answers half
	// the time, a healthy one nearly always) but not a down service.
	retriable := fail
	if granted < retriable {
		retriable = granted
	}
	saved := 0
	switch health {
	case fabric.ServingDegraded:
		saved = retriable / 2
	case fabric.ServingHealthy:
		saved = retriable
	}
	errors := fail - saved
	if errors > 0 {
		e.stats.Errors += int64(errors)
		e.hourFailed += int64(errors)
		aSeq, aKind := e.bestAnchor(now)
		e.annotate(KindRequestErrors, now, s.Name, float64(errors), float64(pass), health.String(), aSeq, aKind)
		if e.rec != nil {
			// Retried-then-failed attempts belong to the error group.
			failedRetries := retriable - saved
			if failedRetries < 0 {
				failedRetries = 0
			}
			e.traceError(now, s.Name, int64(errors), meanMs, failedRetries, aSeq, aKind)
		}
	}

	// Feed first-attempt outcomes back to the breaker and journal its
	// transitions: trips anchor to the incident, recoveries chain to the
	// trip so the whole lifecycle is one walkable chain.
	preRecord := st.br.State()
	if pass > 0 {
		st.br.Record(now, pass-fail, fail)
	}
	switch post := st.br.State(); {
	case post == BreakerOpen && preRecord != BreakerOpen:
		e.stats.BreakerOpens++
		aSeq, aKind := e.bestAnchor(now)
		if aSeq == 0 && st.openSeq != 0 {
			// Re-opened beyond the anchor horizon: chain the lifecycle.
			aSeq, aKind = st.openSeq, st.openKind
		}
		st.openSeq = e.annotate(KindBreakerOpen, now, s.Name, float64(fail), float64(pass), health.String(), aSeq, aKind)
		st.openKind = aKind
	case post == BreakerClosed && preRecord == BreakerHalfOpen:
		e.stats.BreakerCloses++
		e.annotate(KindBreakerClosed, now, s.Name, 0, 0, "recovered", st.openSeq, st.openKind)
		st.openSeq, st.openKind = 0, fabric.CauseNone
	}

	// Latency accounting for the requests that succeeded: queue-drained
	// requests waited about half a tick, retried ones their backoff.
	okCount := pass - errors
	if okCount <= 0 {
		return
	}
	if saved > okCount {
		saved = okCount
	}
	fromQueue := waited
	if fromQueue > okCount-saved {
		fromQueue = okCount - saved
	}
	// backoffMs draws from the latency stream unconditionally — it must
	// stay a single call here so enabling tracing never shifts the rng.
	back := e.backoffMs()
	queueMs := e.spec.TickSeconds * 1000 / 2
	e.observe(now, s.Name, saved, meanMs+back, 0, back, 1, false)
	e.observe(now, s.Name, fromQueue, meanMs+queueMs, queueMs, 0, 0, false)
	// Only the plain cells hedge: queue-drained and retried requests
	// already paid a wait the hedge race would not have won.
	e.observe(now, s.Name, okCount-saved-fromQueue, meanMs, 0, 0, 0, true)

	if e.tickHedges > 0 {
		e.stats.Hedges += e.tickHedges
		e.stats.HedgeWins += e.tickHedgeWins
		e.stats.Dispatched += e.tickHedges // speculative attempts are real load
		aSeq, aKind := e.bestAnchor(now)
		e.annotate(KindRequestHedged, now, s.Name, float64(e.tickHedges),
			float64(e.tickHedges+e.tickHedgeDeny), e.hedgeAltNode, aSeq, aKind)
	}
	if e.tickHedgeDeny > 0 {
		e.stats.HedgesDenied += e.tickHedgeDeny
		aSeq, aKind := e.bestAnchor(now)
		e.annotate(KindHedgeBudgetExhausted, now, s.Name, float64(e.tickHedgeDeny),
			float64(e.tickHedges+e.tickHedgeDeny), "", aSeq, aKind)
	}
}

// latencyMs models one tick's mean request latency for a service: batch-
// amortized overhead plus a base service time inflated by the serving
// node's core utilization, replica co-location, and (when a fail-slow
// hook is attached) its slow factor. The serving node is the primary, or
// the least-loaded healthy replica when routing is configured. As a side
// effect it arms the hedge scratch: the class hedge delay and the
// speculative path's latency on the best other replica.
func (e *Engine) latencyMs(s *fabric.Service, pass int, now time.Time, premium bool) float64 {
	batches := (pass + e.spec.BatchSize - 1) / e.spec.BatchSize
	e.stats.Batches += int64(batches)
	fill := float64(pass) / float64(batches)
	m := e.spec.OverheadMs/fill + e.spec.BaseLatencyMs
	e.hedgeDelayMs, e.hedgeAltMs, e.hedgeAltNode = 0, 0, ""
	p := s.Primary()
	if p == nil || p.Node == nil {
		return m
	}
	serving := p.Node
	if e.spec.Routing != nil {
		if best := e.leastLoadedReplica(s, now, nil); best != nil {
			serving = best
		}
	}
	svcMs, util := e.nodeServiceMs(serving, now)
	m = e.spec.OverheadMs/fill + svcMs
	e.lastNode, e.lastUtil = serving.ID, util
	if e.spec.Hedge != nil {
		if alt := e.leastLoadedReplica(s, now, serving); alt != nil {
			altMs, _ := e.nodeServiceMs(alt, now)
			e.hedgeAltMs = e.spec.OverheadMs/fill + altMs
			e.hedgeAltNode = alt.ID
			mult := e.spec.Hedge.DelayMultiple
			if premium {
				mult = e.spec.Hedge.PremiumDelayMultiple
			}
			// The hedge delay is relative to the alternate route, not an
			// absolute baseline: it self-calibrates to whatever the
			// cluster-wide load level makes requests cost right now, so
			// only slowness the alternate would beat triggers a hedge.
			e.hedgeDelayMs = e.hedgeAltMs * mult
		}
	}
	return m
}

// backoffMs is the modeled wait of a successful retry: the mean of the
// exponential ladder min(base*2^k, max), jittered once per service tick.
func (e *Engine) backoffMs() float64 {
	r := e.spec.Retry
	total, steps := 0.0, 0
	b := r.BackoffBaseMs
	for k := 1; k < r.MaxAttempts; k++ {
		if b > r.BackoffMaxMs {
			b = r.BackoffMaxMs
		}
		total += b
		steps++
		b *= 2
	}
	if steps == 0 {
		return 0
	}
	mean := total / float64(steps)
	if r.Jitter > 0 {
		mean *= 1 + r.Jitter*(e.latencyRnd.Float64()-0.5)
	}
	return mean
}

// latSpread turns a per-tick mean latency into a fixed distribution:
// cumulative fractions of the tick's requests at multiples of the mean.
// Deterministic integer allocation — no per-request randomness.
var latSpread = []struct{ cum, mult float64 }{
	{0.50, 0.80},
	{0.85, 1.05},
	{0.95, 1.60},
	{0.99, 3.00},
	{1.00, 8.00},
}

// observe records count successful requests around mean ms. queueMs and
// backMs are the queue-wait and retry-backoff components already inside
// ms; the tracer scales them with the spread multiplier so a trace's
// spans sum exactly to its recorded latency. hedge marks cells eligible
// for hedged dispatch when the current tick qualifies.
func (e *Engine) observe(now time.Time, svc string, count int, ms, queueMs, backMs float64, retries int, hedge bool) {
	if count <= 0 {
		return
	}
	assigned := int64(0)
	for _, qs := range latSpread {
		upto := int64(qs.cum*float64(count) + 0.5)
		if upto > int64(count) {
			upto = int64(count)
		}
		if k := upto - assigned; k > 0 {
			e.observeCell(now, svc, k, qs.mult, ms, queueMs, backMs, retries, hedge)
			assigned = upto
		}
	}
	if k := int64(count) - assigned; k > 0 {
		mult := latSpread[len(latSpread)-1].mult
		e.observeCell(now, svc, k, mult, ms, queueMs, backMs, retries, hedge)
	}
}

// observeCell records one latency-spread cell. When the tick qualifies
// for hedging and the cell's latency outlives the hedge delay, as many
// of its requests as the hedge budget grants race a speculative attempt
// on the alternate replica and observe whichever path finished first.
func (e *Engine) observeCell(now time.Time, svc string, k int64, mult, ms, queueMs, backMs float64, retries int, hedge bool) {
	v := ms * mult
	if hedge && e.curHedge != nil && v > e.hedgeDelayMs {
		granted := int64(e.curHedge.hedge.grant(int(k)))
		e.tickHedgeDeny += k - granted
		if granted > 0 {
			hv := e.hedgeDelayMs + e.hedgeAltMs*mult
			win := hv < v
			if win {
				e.tickHedgeWins += granted
			} else {
				hv = v
			}
			e.tickHedges += granted
			hb := BucketIndex(hv)
			if e.rec != nil {
				e.traceHedged(now, svc, granted, hb, hv, win)
			}
			e.hourHist.add(hb, hv, granted)
			k -= granted
		}
	}
	if k <= 0 {
		return
	}
	b := BucketIndex(v)
	if e.rec != nil {
		e.traceOK(now, svc, k, b, v, queueMs*mult, backMs*mult, retries)
	}
	e.hourHist.add(b, v, k)
}

// traceFail assembles and offers a failure trace (shed or breaker-
// rejected group) to the sampler. Failures are always kept.
func (e *Engine) traceFail(now time.Time, svc string, outcome reqtrace.Outcome, count int64, latMs float64, aSeq uint64, aKind fabric.CauseKind) {
	tr := e.rec.Begin(now.UnixNano(), svc)
	tr.Add(reqtrace.SpanArrival, 0, 0)
	tr.Add(reqtrace.SpanAdmission, 0, 0)
	if outcome == reqtrace.OutcomeRejected {
		tr.Add(reqtrace.SpanBreaker, 0, 0)
		tr.Add(reqtrace.SpanReject, 0, 0)
	} else {
		tr.Add(reqtrace.SpanShed, 0, 0)
	}
	group := e.traceGroup
	e.traceGroup++
	if kept, ok := e.rec.Finish(outcome, count, latMs, 0, group, false); ok {
		e.emitTrace(now, svc, kept, aSeq, aKind)
	}
}

// traceError assembles the trace for a group of dispatched requests
// that finally failed; retried reports how many of them burned a retry.
func (e *Engine) traceError(now time.Time, svc string, count int64, meanMs float64, retried int, aSeq uint64, aKind fabric.CauseKind) {
	tr := e.rec.Begin(now.UnixNano(), svc)
	tr.Add(reqtrace.SpanArrival, 0, 0)
	tr.Add(reqtrace.SpanAdmission, 0, 0)
	tr.Add(reqtrace.SpanBreaker, 0, 0)
	tr.AddDispatch(0, meanMs, e.lastNode, e.lastUtil)
	tr.Add(reqtrace.SpanError, meanMs, 0)
	retries := 0
	if retried > 0 {
		retries = 1
	}
	group := e.traceGroup
	e.traceGroup++
	if kept, ok := e.rec.Finish(reqtrace.OutcomeError, count, meanMs, retries, group, false); ok {
		e.emitTrace(now, svc, kept, aSeq, aKind)
	}
}

// traceOK assembles a success trace for one latency-spread cell of
// latency v in histogram bucket b. The first trace into an empty bucket
// is always kept as that bucket's exemplar; otherwise the deterministic
// 1-in-N sampler rules.
func (e *Engine) traceOK(now time.Time, svc string, count int64, b int, v, queueMs, backMs float64, retries int) {
	bucketFirst := e.hourHist.needsExemplar(b)
	tr := e.rec.Begin(now.UnixNano(), svc)
	tr.Add(reqtrace.SpanArrival, 0, 0)
	off := 0.0
	if queueMs > 0 {
		tr.Add(reqtrace.SpanQueueWait, 0, queueMs)
		off = queueMs
	}
	tr.Add(reqtrace.SpanAdmission, off, 0)
	tr.Add(reqtrace.SpanBreaker, off, 0)
	svcMs := v - queueMs - backMs
	if svcMs < 0 {
		svcMs = 0
	}
	if backMs > 0 {
		// A rescued retry: the first attempt's failure is folded into the
		// backoff wait, then the successful attempt dispatches.
		tr.Add(reqtrace.SpanBackoff, off, backMs)
		off += backMs
	}
	tr.AddDispatch(off, svcMs, e.lastNode, e.lastUtil)
	tr.Add(reqtrace.SpanComplete, v, 0)
	group := e.traceGroup
	e.traceGroup++
	if kept, ok := e.rec.Finish(reqtrace.OutcomeOK, count, v, retries, group, bucketFirst); ok {
		e.hourHist.setExemplar(b, v, kept.ID)
		aSeq, aKind := e.bestAnchor(now)
		e.emitTrace(now, svc, kept, aSeq, aKind)
	}
}

// traceHedged assembles a success trace for a hedged latency-spread
// cell: the dispatch raced a speculative attempt launched at the hedge
// delay, and v, in histogram bucket b, is whichever path finished first.
// On a win the hedge span carries the alternate's service time; on a
// loss it is zero-duration — launched, but beaten by the original.
func (e *Engine) traceHedged(now time.Time, svc string, count int64, b int, v float64, win bool) {
	bucketFirst := e.hourHist.needsExemplar(b)
	tr := e.rec.Begin(now.UnixNano(), svc)
	tr.Add(reqtrace.SpanArrival, 0, 0)
	tr.Add(reqtrace.SpanAdmission, 0, 0)
	tr.Add(reqtrace.SpanBreaker, 0, 0)
	if win {
		tr.AddDispatch(0, e.hedgeDelayMs, e.lastNode, e.lastUtil)
		tr.Add(reqtrace.SpanHedge, e.hedgeDelayMs, v-e.hedgeDelayMs)
	} else {
		tr.AddDispatch(0, v, e.lastNode, e.lastUtil)
		tr.Add(reqtrace.SpanHedge, e.hedgeDelayMs, 0)
	}
	tr.Add(reqtrace.SpanComplete, v, 0)
	group := e.traceGroup
	e.traceGroup++
	if kept, ok := e.rec.Finish(reqtrace.OutcomeOK, count, v, 0, group, bucketFirst); ok {
		e.hourHist.setExemplar(b, v, kept.ID)
		aSeq, aKind := e.bestAnchor(now)
		e.emitTrace(now, svc, kept, aSeq, aKind)
	}
}

// emitTrace journals one kept trace inside the causal bracket of the
// incident that explains it, reusing the engine's encode buffer so a
// kept trace costs one allocation (the Detail string).
func (e *Engine) emitTrace(now time.Time, svc string, tr *reqtrace.Trace, aSeq uint64, aKind fabric.CauseKind) {
	e.detailBuf = reqtrace.AppendDetail(e.detailBuf[:0], tr)
	e.annotate(KindRequestTrace, now, svc, float64(tr.Count), tr.LatencyMs, string(e.detailBuf), aSeq, aKind)
}

// flush closes one observation hour: latency quantiles and rates go to
// the series store (alertable like any other series), the hour's p99 is
// scored against the SLO, and the histogram folds into the run total.
func (e *Engine) flush(now time.Time) {
	p50 := e.hourHist.quantile(0.50)
	p99 := e.hourHist.quantile(0.99)
	p999 := e.hourHist.quantile(0.999)
	rate := 0.0
	if e.hourArrivals > 0 {
		rate = float64(e.hourFailed) / float64(e.hourArrivals)
	}
	if e.store != nil {
		e.store.Series(SeriesLatencyP50).Push(p50)
		e.store.Series(SeriesLatencyP99).Push(p99)
		e.store.Series(SeriesLatencyP999).Push(p999)
		e.store.Series(SeriesErrorRate).Push(rate)
		e.store.Series(SeriesRequests).Push(float64(e.hourArrivals))
		e.store.Series(SeriesErrors).Push(float64(e.hourFailed))
		e.store.Series(SeriesShed).Push(float64(e.hourShed))
	}
	e.stats.HoursObserved++
	violation := e.hourHist.total > 0 && p99 > e.spec.SLOP99Ms
	if violation {
		e.stats.SLOViolationHours++
	}
	if e.rec != nil {
		e.traceHour(now, p99, violation)
	}
	e.runHist.mergeExemplars(&e.hourHist)
	e.runHist.merge(&e.hourHist)
	e.hourHist.reset()
	e.hourArrivals, e.hourFailed, e.hourShed = 0, 0, 0
	if e.promOn {
		e.promUpdate()
	}
}

// traceHour closes one observation hour in the journal: its p99 verdict
// and the p99 bucket's exemplar trace ID, so analysis tools join SLO
// violations to a concrete kept trace without re-deriving bucket math.
func (e *Engine) traceHour(now time.Time, p99 float64, violation bool) {
	b := e.hourHist.quantileBucket(0.99)
	exID := "missing"
	if ex := e.hourHist.exemplarAt(b); ex.id != 0 {
		exID = reqtrace.IDString(ex.id)
	}
	v := 0
	if violation {
		v = 1
	}
	detail := fmt.Sprintf("p99-bucket=%d exemplar=%s violation=%d samples=%d", b, exID, v, e.hourHist.total)
	aSeq, aKind := uint64(0), fabric.CauseNone
	if violation {
		aSeq, aKind = e.bestAnchor(now)
	}
	e.annotate(KindTraceHour, now, "", p99, e.spec.SLOP99Ms, detail, aSeq, aKind)
}

// RegisterProm exports the engine's latency histogram on reg under
// PromHistogramName as a proper cumulative-bucket Prometheus histogram,
// carrying bucket exemplars when request tracing is enabled. Idempotent.
func (e *Engine) RegisterProm(reg *obs.Registry) {
	if reg == nil || e.promOn {
		return
	}
	e.promOn = true
	e.promUpdate()
	reg.RegisterHistogramProvider(PromHistogramName, e.promHistogram)
}

// promUpdate publishes the run+hour histogram as an immutable snapshot;
// flush calls it hourly so /metrics tracks the run without touching the
// hot path.
func (e *Engine) promUpdate() {
	comb := e.runHist
	comb.merge(&e.hourHist)
	snap := obs.HistogramSnapshot{Count: comb.total, Sum: comb.sum}
	for i := 0; i < histBuckets; i++ {
		n := comb.counts[i]
		if n == 0 {
			continue
		}
		bc := obs.BucketCount{Le: BucketBound(i), Count: n}
		ex := e.runHist.exemplarAt(i)
		if ex.id == 0 {
			ex = e.hourHist.exemplarAt(i)
		}
		if ex.id != 0 {
			bc.Exemplar = &obs.Exemplar{TraceID: reqtrace.IDString(ex.id), Value: ex.ms}
		}
		snap.Buckets = append(snap.Buckets, bc)
	}
	e.promMu.Lock()
	e.promSnap = snap
	e.promMu.Unlock()
}

func (e *Engine) promHistogram() obs.HistogramSnapshot {
	e.promMu.Lock()
	defer e.promMu.Unlock()
	return e.promSnap
}
