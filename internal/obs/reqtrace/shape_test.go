package reqtrace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"toto/internal/rng"
)

// refTrace is the oracle for Record's shapes: the span lists the traffic
// engine once assembled by hand, one Add or AddDispatch per span, before
// kept traces were stored as a Record.
type refTrace struct{ spans []Span }

func (t *refTrace) Add(name string, startMs, durMs float64) {
	t.spans = append(t.spans, Span{Name: name, StartMs: startMs, DurMs: durMs})
}

func (t *refTrace) AddDispatch(startMs, durMs float64, node string, util float64) {
	t.spans = append(t.spans, Span{Name: SpanDispatch, StartMs: startMs, DurMs: durMs, Node: node, Util: util})
}

// The four ref* functions are the engine's former hand assembly of a
// shed or rejected, an error, a success and a hedged group, statement
// for statement.

func refFail(outcome Outcome) []Span {
	tr := &refTrace{}
	tr.Add(SpanArrival, 0, 0)
	tr.Add(SpanAdmission, 0, 0)
	if outcome == OutcomeRejected {
		tr.Add(SpanBreaker, 0, 0)
		tr.Add(SpanReject, 0, 0)
	} else {
		tr.Add(SpanShed, 0, 0)
	}
	return tr.spans
}

func refError(meanMs float64, node string, util float64) []Span {
	tr := &refTrace{}
	tr.Add(SpanArrival, 0, 0)
	tr.Add(SpanAdmission, 0, 0)
	tr.Add(SpanBreaker, 0, 0)
	tr.AddDispatch(0, meanMs, node, util)
	tr.Add(SpanError, meanMs, 0)
	return tr.spans
}

func refOK(v, backMs float64, node string, util float64) []Span {
	tr := &refTrace{}
	tr.Add(SpanArrival, 0, 0)
	tr.Add(SpanAdmission, 0, 0)
	tr.Add(SpanBreaker, 0, 0)
	svcMs := v - backMs
	if svcMs < 0 {
		svcMs = 0
	}
	if backMs > 0 {
		tr.Add(SpanBackoff, 0, backMs)
	}
	tr.AddDispatch(backMs, svcMs, node, util)
	tr.Add(SpanComplete, v, 0)
	return tr.spans
}

func refHedged(v, hedgeDelayMs float64, win bool, node string, util float64) []Span {
	tr := &refTrace{}
	tr.Add(SpanArrival, 0, 0)
	tr.Add(SpanAdmission, 0, 0)
	tr.Add(SpanBreaker, 0, 0)
	if win {
		tr.AddDispatch(0, hedgeDelayMs, node, util)
		tr.Add(SpanHedge, hedgeDelayMs, v-hedgeDelayMs)
	} else {
		tr.AddDispatch(0, v, node, util)
		tr.Add(SpanHedge, hedgeDelayMs, 0)
	}
	tr.Add(SpanComplete, v, 0)
	return tr.spans
}

// Shape kinds, one per engine trace function.
const (
	kindShed = iota
	kindRejected
	kindError
	kindOK
	kindHedged
	numKinds
)

// shapeInput is one request group as the engine sees it when it traces.
type shapeInput struct {
	kind    int
	t       int64
	svc     string
	count   int64
	v       float64 // latency: the error group's mean, or the cell's
	backMs  float64 // kindOK only
	retries int     // kindError and kindOK only
	hedgeMs float64 // read by kindHedged only
	win     bool    // kindHedged only
	node    string
	util    float64
}

// record fills a Record the way the engine's trace functions do, and
// returns the reference spans and retries of the old hand assembly.
func (in shapeInput) record() (Record, []Span, int) {
	r := Record{Time: in.t, Service: in.svc, Count: in.count}
	switch in.kind {
	case kindShed, kindRejected:
		r.Outcome = OutcomeShed
		if in.kind == kindRejected {
			r.Outcome = OutcomeRejected
		}
		return r, refFail(r.Outcome), 0
	case kindError:
		r.Outcome, r.LatencyMs, r.Retries, r.Node, r.Util = OutcomeError, in.v, in.retries, in.node, in.util
		return r, refError(in.v, in.node, in.util), in.retries
	case kindOK:
		// The engine sets the tick's hedge delay on unhedged cells too.
		r.LatencyMs, r.Retries, r.BackoffMs, r.HedgeDelayMs, r.Node, r.Util = in.v, in.retries, in.backMs, in.hedgeMs, in.node, in.util
		return r, refOK(in.v, in.backMs, in.node, in.util), in.retries
	default:
		r.LatencyMs, r.HedgeDelayMs, r.Hedged, r.Won, r.Node, r.Util = in.v, in.hedgeMs, true, in.win, in.node, in.util
		return r, refHedged(in.v, in.hedgeMs, in.win, in.node, in.util), 0
	}
}

// sameBits compares two span lists field by field, floats by bit
// pattern, so a -0 or a last-ulp drift is a mismatch.
func sameBits(a, b []Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Node != b[i].Node ||
			math.Float64bits(a[i].StartMs) != math.Float64bits(b[i].StartMs) ||
			math.Float64bits(a[i].DurMs) != math.Float64bits(b[i].DurMs) ||
			math.Float64bits(a[i].Util) != math.Float64bits(b[i].Util) {
			return false
		}
	}
	return true
}

// checkShape holds the Record for in against the reference assembly:
// its rendered spans, its wire bytes, and the decoded wire.
func checkShape(t *testing.T, in shapeInput) {
	t.Helper()
	r, want, retries := in.record()
	r.ID = TraceID(5, r.Time, r.Service, r.Outcome, 0)
	if got := r.AppendSpans(nil); !sameBits(got, want) {
		t.Fatalf("%+v: spans\n got %+v\nwant %+v", in, got, want)
	}
	tr := r.Trace()
	if !sameBits(tr.Spans, want) || tr.ID != r.ID || tr.IDHex != IDString(r.ID) ||
		tr.OutcomeS != r.Outcome.String() || tr.Retries != retries {
		t.Fatalf("%+v: rendered trace %+v", in, tr)
	}
	wire := string(AppendDetail(nil, &r))
	if ref := string(appendWire(nil, r.ID, r.Outcome, r.Count, r.LatencyMs, retries, want)); wire != ref {
		t.Fatalf("%+v: wire\n got %q\nwant %q", in, wire, ref)
	}
	for _, sp := range want {
		for _, f := range []float64{sp.StartMs, sp.DurMs, sp.Util} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return // the wire format carries finite floats only
			}
		}
	}
	dec, err := DecodeDetail(wire)
	if err != nil {
		t.Fatalf("%+v: decode %q: %v", in, wire, err)
	}
	if dec.ID != r.ID || dec.Outcome != r.Outcome || dec.Count != r.Count ||
		dec.LatencyMs != r.LatencyMs || dec.Retries != retries || len(dec.Spans) != len(want) {
		t.Fatalf("%+v: decoded %+v", in, dec)
	}
	for i := range want {
		if dec.Spans[i] != want[i] {
			t.Fatalf("%+v: decoded span %d = %+v, want %+v", in, i, dec.Spans[i], want[i])
		}
	}
}

// TestTraceShapesMatchReference covers all six shapes at the edges the
// engine's float expressions care about.
func TestTraceShapesMatchReference(t *testing.T) {
	base := shapeInput{t: 1e18, svc: "db-7", count: 812, v: 41.7, retries: 1, node: "node-4", util: 0.8500000000000001}
	with := func(f func(*shapeInput)) shapeInput {
		in := base
		f(&in)
		return in
	}
	cases := map[string]shapeInput{
		"shed":                with(func(in *shapeInput) { in.kind = kindShed }),
		"rejected":            with(func(in *shapeInput) { in.kind = kindRejected }),
		"error":               with(func(in *shapeInput) { in.kind = kindError }),
		"error no retry":      with(func(in *shapeInput) { in.kind, in.retries = kindError, 0 }),
		"ok":                  with(func(in *shapeInput) { in.kind, in.retries = kindOK, 0 }),
		"ok backoff":          with(func(in *shapeInput) { in.kind, in.backMs = kindOK, 12.5*1.6 }),
		"ok backoff > v":      with(func(in *shapeInput) { in.kind, in.backMs = kindOK, 41.75 }),
		"ok backoff = v":      with(func(in *shapeInput) { in.kind, in.backMs = kindOK, 41.7 }),
		"ok negative backoff": with(func(in *shapeInput) { in.kind, in.backMs = kindOK, -3 }),
		"ok empty node":       with(func(in *shapeInput) { in.kind, in.node = kindOK, "" }),
		"ok util 0":           with(func(in *shapeInput) { in.kind, in.util = kindOK, 0 }),
		"ok hedge delay set":  with(func(in *shapeInput) { in.kind, in.hedgeMs, in.win = kindOK, 30, true }),
		"hedged win":          with(func(in *shapeInput) { in.kind, in.hedgeMs, in.win = kindHedged, 30.0*1.5, true }),
		"hedged loss":         with(func(in *shapeInput) { in.kind, in.hedgeMs = kindHedged, 30.0*1.5 }),
		"hedged win at v":     with(func(in *shapeInput) { in.kind, in.hedgeMs, in.win = kindHedged, 41.7, true }),
		"hedged loss at v":    with(func(in *shapeInput) { in.kind, in.hedgeMs = kindHedged, 41.7 }),
		"hedged empty node":   with(func(in *shapeInput) { in.kind, in.hedgeMs, in.node, in.util = kindHedged, 0.1, "", 0 }),
		"error util 0":        with(func(in *shapeInput) { in.kind, in.util, in.node = kindError, 0, "" }),
		"ok tiny":             with(func(in *shapeInput) { in.kind, in.v, in.backMs = kindOK, 0.1+0.2, 0.1 }),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { checkShape(t, in) })
	}
}

// FuzzTraceShapeMatchesReference: for any outcome, latency, backoff,
// hedge delay, race result, node and utilization, a Record renders,
// encodes and decodes to exactly the hand-assembled spans.
func FuzzTraceShapeMatchesReference(f *testing.F) {
	f.Add(uint8(kindOK), int64(812), 41.7, 20.0, 0.0, false, "node-2", 0.37, uint8(1))
	f.Add(uint8(kindOK), int64(1), 3.0, 5.0, 0.0, false, "", 0.0, uint8(0))
	f.Add(uint8(kindHedged), int64(4), 78.3, 0.0, 45.0, true, "node-5", 0.97, uint8(0))
	f.Add(uint8(kindHedged), int64(2), 88.8, 0.0, 88.8, false, "node-6", 0.5, uint8(0))
	f.Add(uint8(kindError), int64(5), 41.7, 0.0, 0.0, false, "node-4", 0.8500000000000001, uint8(1))
	f.Add(uint8(kindShed), int64(7), 0.0, 0.0, 0.0, false, "", 0.0, uint8(0))
	f.Add(uint8(kindRejected), int64(3), 0.0, 0.0, 0.0, false, "", 0.0, uint8(0))
	f.Fuzz(func(t *testing.T, kind uint8, count int64, v, backMs, hedgeMs float64, win bool, node string, util float64, retries uint8) {
		if strings.ContainsAny(node, "|;@~") {
			t.Skip("node names never contain wire separators")
		}
		checkShape(t, shapeInput{
			kind: int(kind) % numKinds, t: 42, svc: "db-0", count: count, v: v, backMs: backMs,
			retries: int(retries % 2), hedgeMs: hedgeMs, win: win, node: node, util: util,
		})
	})
}

// TestDecideDropAllocationFree: a group the sampler drops costs no
// allocation — deciding first means nothing is built for it.
func TestDecideDropAllocationFree(t *testing.T) {
	rec, err := NewRecorder(&Spec{SampleOneIn: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rec.Bind(3, rng.New(3).Split("reqtrace"))
	allocs := testing.AllocsPerRun(1000, func() {
		if rec.Decide(OutcomeOK, false) {
			t.Fatal("1-in-2^30 sampler kept a group")
		}
	})
	if allocs != 0 {
		t.Fatalf("dropped group allocates %.1f times", allocs)
	}
	if st := rec.Stats(); st.Dropped != st.Considered || st.Dropped < 1000 {
		t.Fatalf("drop counters: %+v", st)
	}
}

// TestAppendDetailAllocationFree: encoding a kept record into a buffer
// with room allocates nothing; the engine's only per-trace allocation is
// the Detail string it journals.
func TestAppendDetailAllocationFree(t *testing.T) {
	r, _, _ := shapeInput{kind: kindOK, count: 9, v: 41.7, backMs: 20, retries: 1, node: "node-3", util: 0.5}.record()
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendDetail(buf[:0], &r) }); allocs != 0 {
		t.Fatalf("AppendDetail allocates %.1f times", allocs)
	}
}

// goldenTracesJSON is Snapshot marshalled for a ring holding one trace
// of each shape, as /traces serves it, recorded from the hand-assembled
// span lists before kept traces became Records.
const goldenTracesJSON = `[{"id":"fe3d288443224785","t":1000,"service":"db-1","outcome":"shed","count":7,"latencyMs":0,"spans":[{"name":"arrival","startMs":0,"durMs":0},{"name":"admission","startMs":0,"durMs":0},{"name":"shed","startMs":0,"durMs":0}]},{"id":"937731446fe4e4d4","t":2000,"service":"db-2","outcome":"breaker-rejected","count":3,"latencyMs":0,"spans":[{"name":"arrival","startMs":0,"durMs":0},{"name":"admission","startMs":0,"durMs":0},{"name":"breaker","startMs":0,"durMs":0},{"name":"breaker-reject","startMs":0,"durMs":0}]},{"id":"fe52b5f7d6d153f6","t":3000,"service":"db-3","outcome":"error","count":5,"latencyMs":41.7,"retries":1,"spans":[{"name":"arrival","startMs":0,"durMs":0},{"name":"admission","startMs":0,"durMs":0},{"name":"breaker","startMs":0,"durMs":0},{"name":"dispatch","startMs":0,"durMs":41.7,"node":"node-4","util":0.8500000000000001},{"name":"error","startMs":41.7,"durMs":0}]},{"id":"42165474a933b018","t":4000,"service":"db-1","outcome":"ok","count":812,"latencyMs":43.68,"retries":1,"spans":[{"name":"arrival","startMs":0,"durMs":0},{"name":"admission","startMs":0,"durMs":0},{"name":"breaker","startMs":0,"durMs":0},{"name":"retry-backoff","startMs":0,"durMs":20},{"name":"dispatch","startMs":20,"durMs":23.68,"node":"node-2","util":0.37},{"name":"complete","startMs":43.68,"durMs":0}]},{"id":"0e533190c092b38e","t":5000,"service":"db-2","outcome":"ok","count":90,"latencyMs":0.3,"spans":[{"name":"arrival","startMs":0,"durMs":0},{"name":"admission","startMs":0,"durMs":0},{"name":"breaker","startMs":0,"durMs":0},{"name":"dispatch","startMs":0,"durMs":0.3,"node":"node-0"},{"name":"complete","startMs":0.3,"durMs":0}]},{"id":"6647b0ad230d2b1c","t":6000,"service":"db-3","outcome":"ok","count":4,"latencyMs":78.3,"spans":[{"name":"arrival","startMs":0,"durMs":0},{"name":"admission","startMs":0,"durMs":0},{"name":"breaker","startMs":0,"durMs":0},{"name":"dispatch","startMs":0,"durMs":45,"node":"node-5","util":0.97},{"name":"hedge","startMs":45,"durMs":33.3},{"name":"complete","startMs":78.3,"durMs":0}]},{"id":"e7ac0b619e3d43b9","t":7000,"service":"db-1","outcome":"ok","count":2,"latencyMs":88.8,"spans":[{"name":"arrival","startMs":0,"durMs":0},{"name":"admission","startMs":0,"durMs":0},{"name":"breaker","startMs":0,"durMs":0},{"name":"dispatch","startMs":0,"durMs":88.8,"node":"node-6","util":0.5},{"name":"hedge","startMs":45,"durMs":0},{"name":"complete","startMs":88.8,"durMs":0}]}]`

// TestSnapshotJSONGolden: /traces bytes for every shape are unchanged.
func TestSnapshotJSONGolden(t *testing.T) {
	rec, err := NewRecorder(&Spec{SampleOneIn: 1, RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec.Bind(7, rng.New(7).Split("reqtrace"))
	inputs := []shapeInput{
		{kind: kindShed, t: 1000, svc: "db-1", count: 7},
		{kind: kindRejected, t: 2000, svc: "db-2", count: 3},
		{kind: kindError, t: 3000, svc: "db-3", count: 5, v: 41.7, retries: 1, node: "node-4", util: 0.8500000000000001},
		{kind: kindOK, t: 4000, svc: "db-1", count: 812, v: 27.3 * 1.6, backMs: 12.5 * 1.6, retries: 1, node: "node-2", util: 0.37},
		{kind: kindOK, t: 5000, svc: "db-2", count: 90, v: 0.1 + 0.2, node: "node-0"},
		{kind: kindHedged, t: 6000, svc: "db-3", count: 4, v: 30.0*1.5 + 11.1*3, hedgeMs: 30.0 * 1.5, win: true, node: "node-5", util: 0.97},
		{kind: kindHedged, t: 7000, svc: "db-1", count: 2, v: 88.8, hedgeMs: 30.0 * 1.5, node: "node-6", util: 0.5},
	}
	for group, in := range inputs {
		r, _, _ := in.record()
		if !rec.Decide(r.Outcome, true) {
			t.Fatalf("group %d dropped", group)
		}
		rec.Keep(group, &r)
	}
	got, err := json.Marshal(rec.Snapshot(Query{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenTracesJSON {
		t.Fatalf("/traces JSON drifted:\n got %s\nwant %s", got, goldenTracesJSON)
	}
}
