package traffic_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/obs"
	"toto/internal/obs/journal"
	"toto/internal/obs/reqtrace"
	"toto/internal/rng"
	"toto/internal/simclock"
	"toto/internal/traffic"
)

// goldenGrayfailStreamHash locks the gray-failure day: the seed-29
// fail-slow day served with classes, load-aware routing, hedging, and
// slow-node detection all on, hashed over the traffic vocabulary plus
// the hedge and slow-node annotation kinds. If this moves, the hedge
// arithmetic, routing choice, class order, or detector timing changed
// and the commit must say why.
const (
	goldenGrayfailStreamHash  = "a1da23eaad1379879f2ccdd4cc6919bb49031463155b9bf6a9626db6691bff1a"
	goldenGrayfailStreamCount = 180
)

// goldenHedgedTraceStreamHash locks the sampled-trace stream of the
// same day traced at 1-in-20 (traceStreamHash: every request-trace and
// request-trace-hour annotation). It is the only golden whose kept
// traces carry hedge spans, so it pins the hedged-win and hedged-loss
// shapes byte for byte.
const (
	goldenHedgedTraceStreamHash  = "7c567eeb89a4fbc6364cfff666bdf4f93b9b383877e2e83f640780bfc535f15d"
	goldenHedgedTraceStreamCount = 17465
)

// grayfailSlowFn is the deterministic fail-slow stand-in the traffic
// tests use instead of a chaos engine (importing internal/chaos here
// would cycle): node-3 ramps to a 4× service-time multiplier over hour
// 8, holds the plateau until hour 15, and recovers during hour 15–16.
func grayfailSlowFn(node string, now time.Time) float64 {
	if node != "node-3" {
		return 1
	}
	h := now.Sub(harnessStart).Hours()
	switch {
	case h < 8 || h >= 16:
		return 1
	case h < 9:
		return 1 + 3*(h-8)
	case h < 15:
		return 4
	default:
		return 4 - 3*(h-15)
	}
}

// grayfailOpts configures one run of the gray-failure harness.
type grayfailOpts struct {
	spec   traffic.Spec
	detect bool // enable the fabric's slow-node detector
	slow   bool // attach grayfailSlowFn as the fail-slow view
	outage bool // the noon crash outage instead (shed-order runs)
	labels bool // label every 4th service Premium/BC
}

// runGrayfailDay is runTrafficDay's gray-failure sibling: the same
// 10-node, 48-service, 24-hour workload, with a fail-slow node (or the
// crash outage), optional premium labels, and optional slow-node
// detection wired into the fabric.
func runGrayfailDay(tb testing.TB, opts grayfailOpts, w *journal.Writer) (traffic.Stats, fabric.SlowNodeStats) {
	tb.Helper()
	clock := simclock.New(harnessStart)
	cfg := fabric.DefaultConfig()
	cfg.PLBSeed = 7
	cfg.BalancingEnabled = true
	cfg.BalanceSpread = 0.45
	c := fabric.NewCluster(clock, 10, harnessCapacity(), cfg)
	if opts.detect {
		c.EnableSlowNodeDetection(fabric.SlowNodeConfig{
			MinSamples:    8,
			Sustain:       20 * time.Minute,
			Probation:     4 * time.Hour,
			DrainAfter:    20 * time.Minute,
			MaxDrainMoves: 4,
			DrainHeadroom: 0.05,
		})
	}
	if w != nil {
		w.Meta("grayfail-day", harnessStart, map[string]string{
			"seed": fmt.Sprint(opts.spec.Seed),
		})
		w.Attach(c)
	}
	c.Start()

	src := rng.New(0x7A7A)
	for i := 0; i < 48; i++ {
		name := fmt.Sprintf("db-%d", i)
		var labels map[string]string
		if opts.labels && i%4 == 0 {
			labels = map[string]string{"edition": "Premium/BC"}
		}
		if i%4 == 0 {
			loads := map[fabric.MetricName]float64{fabric.MetricDiskGB: src.UniformRange(500, 800)}
			if _, err := c.CreateServiceWithLoads(name, 4, 2, labels, loads); err != nil {
				tb.Fatalf("create %s: %v", name, err)
			}
		} else {
			loads := map[fabric.MetricName]float64{fabric.MetricDiskGB: src.UniformRange(200, 500)}
			if _, err := c.CreateServiceWithLoads(name, 2, 2, labels, loads); err != nil {
				tb.Fatalf("create %s: %v", name, err)
			}
		}
	}
	clock.Every(20*time.Minute, func(time.Time) {
		for _, svc := range c.LiveServices() {
			for _, rep := range svc.Replicas {
				_ = c.ReportLoad(rep.ID, fabric.MetricDiskGB, rep.Load(fabric.MetricDiskGB)+src.UniformRange(0, 2.2))
				_ = c.ReportLoad(rep.ID, fabric.MetricMemoryGB, src.UniformRange(1, 8))
			}
		}
	})

	eng, err := traffic.NewEngine(clock, c, &opts.spec, nil, obs.New(obs.Options{}), nil)
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	if opts.slow {
		eng.SetSlowFactor(grayfailSlowFn)
	}
	eng.Start(harnessStart)

	if opts.outage {
		crashed := []string{"node-1", "node-2", "node-3", "node-4", "node-5"}
		clock.At(harnessStart.Add(12*time.Hour), func(time.Time) {
			for _, id := range crashed {
				_, _, _ = c.CrashNode(id)
			}
		})
		clock.At(harnessStart.Add(13*time.Hour), func(time.Time) {
			for _, id := range crashed {
				_ = c.RestartNode(id)
			}
		})
	}

	clock.RunUntil(harnessStart.Add(24 * time.Hour))
	c.Stop()
	eng.Stop()
	return eng.Stats(), c.SlowNodeStats()
}

// grayfailKind extends the traffic vocabulary with the hedge and
// slow-node annotation kinds the gray-failure path adds.
func grayfailKind(kind string) bool {
	switch kind {
	case traffic.KindRequestHedged, traffic.KindHedgeBudgetExhausted,
		"slow-node-detected", "slow-node-quarantined", "slow-node-recovered":
		return true
	}
	return trafficKind(kind)
}

// grayfailStreamHash digests the gray-failure day's annotation stream
// with the same field format as trafficAnnotationHash.
func grayfailStreamHash(entries []journal.Entry) (string, int) {
	h := sha256.New()
	n := 0
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeAnnotation || !grayfailKind(e.Kind) {
			continue
		}
		fmt.Fprintf(h, "%s|%d|%s|%g|%g|%s\n", e.Kind, e.T, e.Service, e.Value, e.Limit, e.Detail)
		n++
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// mitigatedSpec is the full gray-failure resilience configuration the
// golden and mitigation tests run with.
func mitigatedSpec(seed uint64) traffic.Spec {
	return traffic.Spec{
		Seed:     seed,
		SLOP99Ms: 55,
		Classes:  &traffic.ClassesSpec{},
		Routing:  &traffic.RoutingSpec{},
		Hedge:    &traffic.HedgeSpec{BudgetRatio: 0.05},
	}
}

// TestGrayfailDayDeterminism pins the gray-failure golden: the fully
// mitigated fail-slow day is bit-reproducible, matches its golden hash,
// and exercises the whole new annotation vocabulary.
func TestGrayfailDayDeterminism(t *testing.T) {
	run := func() []journal.Entry {
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		runGrayfailDay(t, grayfailOpts{spec: mitigatedSpec(29), detect: true, slow: true, labels: true}, w)
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		entries, err := journal.Read(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return entries
	}
	first := run()
	second := run()
	h1, n1 := grayfailStreamHash(first)
	h2, n2 := grayfailStreamHash(second)
	if h1 != h2 || n1 != n2 {
		t.Fatalf("same-seed grayfail streams diverge: %s/%d vs %s/%d", h1, n1, h2, n2)
	}
	t.Logf("grayfail annotations: %d, hash %s", n1, h1)
	if n1 != goldenGrayfailStreamCount {
		t.Errorf("grayfail annotation count = %d, want golden %d", n1, goldenGrayfailStreamCount)
	}
	if h1 != goldenGrayfailStreamHash {
		t.Errorf("grayfail stream hash = %s, want golden %s", h1, goldenGrayfailStreamHash)
	}

	seen := map[string]bool{}
	for i := range first {
		if first[i].Type == journal.TypeAnnotation {
			seen[first[i].Kind] = true
		}
	}
	for _, kind := range []string{
		traffic.KindRequestHedged, traffic.KindHedgeBudgetExhausted,
		"slow-node-detected", "slow-node-quarantined", "slow-node-recovered",
	} {
		if !seen[kind] {
			t.Errorf("grayfail day never emitted %q", kind)
		}
	}
}

// TestTracedHedgingLeavesPlaneUntouched runs the fully mitigated
// gray-failure day with request tracing on. Tracing observes hedging
// without steering it: the plane's stats and the gray-failure annotation
// stream equal the untraced run's, and the kept traces include hedged
// requests whose hedge span decodes and fits inside the recorded latency.
func TestTracedHedgingLeavesPlaneUntouched(t *testing.T) {
	run := func(spec traffic.Spec) (traffic.Stats, []journal.Entry) {
		var buf bytes.Buffer
		w := journal.NewWriter(&buf)
		st, _ := runGrayfailDay(t, grayfailOpts{spec: spec, detect: true, slow: true, labels: true}, w)
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		entries, err := journal.Read(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return st, entries
	}
	untraced, _ := run(mitigatedSpec(29))
	spec := mitigatedSpec(29)
	// The day hedges only ~90 request groups, so sample successes densely
	// enough that some hedged ones are kept.
	spec.Reqtrace = &reqtrace.Spec{SampleOneIn: 20, RingSize: 64}
	traced, entries := run(spec)

	if traced.Reqtrace == nil {
		t.Fatal("traced run reported no sampler stats")
	}
	if untraced.Hedges == 0 {
		t.Fatal("the mitigated day granted no hedges")
	}
	u, tr := untraced, traced
	tr.Reqtrace = nil
	if u != tr {
		t.Errorf("tracing changed the hedged plane's stats:\nuntraced %+v\ntraced   %+v", u, tr)
	}
	if h, n := grayfailStreamHash(entries); h != goldenGrayfailStreamHash || n != goldenGrayfailStreamCount {
		t.Errorf("traced grayfail stream = %s/%d, want golden %s/%d", h, n, goldenGrayfailStreamHash, goldenGrayfailStreamCount)
	}
	if h, n := traceStreamHash(entries); h != goldenHedgedTraceStreamHash || n != goldenHedgedTraceStreamCount {
		t.Errorf("hedged trace stream = %s/%d, want golden %s/%d", h, n, goldenHedgedTraceStreamHash, goldenHedgedTraceStreamCount)
	}

	hedged := 0
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeAnnotation || e.Kind != traffic.KindRequestTrace {
			continue
		}
		tr, err := reqtrace.DecodeDetail(e.Detail)
		if err != nil {
			t.Fatalf("seq %d: undecodable trace: %v", e.Seq, err)
		}
		for _, sp := range tr.Spans {
			if sp.Name != reqtrace.SpanHedge {
				continue
			}
			hedged++
			if tr.Outcome != reqtrace.OutcomeOK {
				t.Errorf("seq %d: hedge span on a %s trace", e.Seq, tr.OutcomeS)
			}
			if sp.StartMs <= 0 || sp.DurMs < 0 || sp.StartMs+sp.DurMs > tr.LatencyMs*(1+1e-9) {
				t.Errorf("seq %d: hedge span [%g, +%g] outside the trace's %g ms", e.Seq, sp.StartMs, sp.DurMs, tr.LatencyMs)
			}
		}
	}
	if hedged == 0 {
		t.Errorf("none of %d kept traces carries a hedge span", traced.Reqtrace.Kept)
	}
	t.Logf("%d kept traces, %d with a hedge span", traced.Reqtrace.Kept, hedged)
}

// TestGrayfailMitigationReducesTail is the issue's headline acceptance
// at the traffic level: against the identical fail-slow day, hedging +
// routing + quarantine measurably reduce the run p99 and the SLO
// violation count versus the unmitigated twin.
func TestGrayfailMitigationReducesTail(t *testing.T) {
	unmit, _ := runGrayfailDay(t, grayfailOpts{
		spec: traffic.Spec{Seed: 29, SLOP99Ms: 55}, slow: true, labels: true,
	}, nil)
	mit, slow := runGrayfailDay(t, grayfailOpts{
		spec: mitigatedSpec(29), detect: true, slow: true, labels: true,
	}, nil)
	t.Logf("unmitigated: p99=%.1fms sloViolations=%d", unmit.P99Ms, unmit.SLOViolationHours)
	t.Logf("mitigated:   p99=%.1fms sloViolations=%d hedges=%d wins=%d denied=%d slow=%+v",
		mit.P99Ms, mit.SLOViolationHours, mit.Hedges, mit.HedgeWins, mit.HedgesDenied, slow)

	if unmit.SLOViolationHours == 0 {
		t.Fatal("fail-slow day never violated the SLO unmitigated — the fault does not bite")
	}
	if mit.P99Ms >= unmit.P99Ms {
		t.Errorf("mitigation did not reduce p99: %.2f >= %.2f", mit.P99Ms, unmit.P99Ms)
	}
	if mit.SLOViolationHours > unmit.SLOViolationHours {
		t.Errorf("mitigation added SLO violations: %d > %d", mit.SLOViolationHours, unmit.SLOViolationHours)
	}
	if mit.Hedges == 0 || mit.HedgeWins == 0 {
		t.Errorf("no hedges raced during the fail-slow window: %d granted, %d wins", mit.Hedges, mit.HedgeWins)
	}
	if slow.Detections == 0 || slow.Quarantines == 0 {
		t.Errorf("detector never quarantined the slow node: %+v", slow)
	}
	if slow.DrainMoves == 0 {
		t.Errorf("quarantine never drained the slow node: %+v", slow)
	}
	// The budget bound, end to end: hedges never exceed their ratio of
	// offered load.
	if limit := int64(0.05*float64(mit.Arrivals)) + 1; mit.Hedges > limit {
		t.Errorf("hedges %d exceed 5%% of %d arrivals", mit.Hedges, mit.Arrivals)
	}
}

// TestHedgingLeavesRetryBudgetUntouched pins the budget separation: a
// hedged run of the fail-slow day grants exactly the same retries as the
// unhedged twin — hedge tokens and retry tokens never mix — while the
// arrival stream and failure accounting stay identical.
func TestHedgingLeavesRetryBudgetUntouched(t *testing.T) {
	plain, _ := runGrayfailDay(t, grayfailOpts{
		spec: traffic.Spec{Seed: 31, SLOP99Ms: 55}, slow: true,
	}, nil)
	hedged, _ := runGrayfailDay(t, grayfailOpts{
		spec: traffic.Spec{Seed: 31, SLOP99Ms: 55, Hedge: &traffic.HedgeSpec{}}, slow: true,
	}, nil)

	if hedged.Arrivals != plain.Arrivals || hedged.Admitted != plain.Admitted {
		t.Errorf("hedging perturbed the arrival stream: %d/%d vs %d/%d",
			hedged.Arrivals, hedged.Admitted, plain.Arrivals, plain.Admitted)
	}
	if hedged.Retries != plain.Retries || hedged.RetriesDenied != plain.RetriesDenied {
		t.Errorf("hedging changed retry accounting: %d/%d vs %d/%d",
			hedged.Retries, hedged.RetriesDenied, plain.Retries, plain.RetriesDenied)
	}
	if hedged.Shed != plain.Shed || hedged.Errors != plain.Errors {
		t.Errorf("hedging changed failure accounting: shed %d vs %d, errors %d vs %d",
			hedged.Shed, plain.Shed, hedged.Errors, plain.Errors)
	}
	if hedged.Hedges == 0 {
		t.Error("fail-slow day granted no hedges")
	}
	if limit := int64(0.02*float64(hedged.Arrivals)) + 1; hedged.Hedges > limit {
		t.Errorf("hedges %d exceed default budget of %d arrivals", hedged.Hedges, hedged.Arrivals)
	}
	if hedged.P99Ms > plain.P99Ms {
		t.Errorf("hedging worsened p99: %.2f > %.2f", hedged.P99Ms, plain.P99Ms)
	}
}

// TestTrafficClassShedOrder is the acceptance check for class-ordered
// shedding: under the noon crash overload, standard services shed at a
// multiple of the premium rate, because premium admits first from the
// shared bucket.
func TestTrafficClassShedOrder(t *testing.T) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	spec := traffic.Spec{Seed: 13, Classes: &traffic.ClassesSpec{}}
	st, _ := runGrayfailDay(t, grayfailOpts{spec: spec, outage: true, labels: true}, w)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st.Shed == 0 {
		t.Fatal("outage shed nothing — overload never happened")
	}
	entries, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var premShed, stdShed float64
	for i := range entries {
		e := &entries[i]
		if e.Type != journal.TypeAnnotation || e.Kind != traffic.KindRequestShed {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(e.Service, "db-"))
		if err != nil {
			t.Fatalf("unexpected service %q in shed annotation", e.Service)
		}
		if idx%4 == 0 {
			premShed += e.Value
		} else {
			stdShed += e.Value
		}
	}
	// Demand is proportional to reserved cores: premium services hold
	// 12×8 = 96 of 240 cores (40%). Shed-per-core must be lopsided
	// toward standard.
	premRate := premShed / 96
	stdRate := stdShed / 144
	t.Logf("shed: premium %.0f (%.2f/core), standard %.0f (%.2f/core)", premShed, premRate, stdShed, stdRate)
	if stdShed == 0 {
		t.Fatal("standard class never shed under overload")
	}
	if premRate >= stdRate/2 {
		t.Errorf("shed order not honored: premium %.2f/core vs standard %.2f/core", premRate, stdRate)
	}
}
