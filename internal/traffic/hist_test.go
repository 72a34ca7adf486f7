package traffic

import (
	"math"
	"testing"
)

// TestBucketIndexEdges pins the bucket mapping for every degenerate
// latency the engine's models can produce: quantile math must clamp,
// never panic or index out of the layout.
func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		name string
		ms   float64
		want int
	}{
		{"zero", 0, 0},
		{"negative", -5, 0},
		{"nan", math.NaN(), 0},
		{"below-base", 0.1, 0},
		{"at-base", histBaseMs, 0},
		{"just-above-base", histBaseMs * 1.01, 1},
		{"one-ms", 1, 1 + int(math.Log(1/histBaseMs)/math.Log(histGrowth))},
		{"huge", 1e12, histBuckets - 1},
		{"pos-inf", math.Inf(1), histBuckets - 1},
		{"neg-inf", math.Inf(-1), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := BucketIndex(tc.ms); got != tc.want {
				t.Fatalf("BucketIndex(%v) = %d, want %d", tc.ms, got, tc.want)
			}
		})
	}
	// A bucket's upper bound sits on a float boundary, so it may land in
	// bucket i or i+1 — but never anywhere else, and never out of range.
	prev := 0
	for i := 0; i < histBuckets; i++ {
		got := BucketIndex(BucketBound(i))
		if got != i && got != i+1 || got >= histBuckets && i != histBuckets-1 {
			t.Fatalf("BucketIndex(BucketBound(%d)) = %d", i, got)
		}
		if got < prev {
			t.Fatalf("BucketIndex not monotone at bucket %d: %d < %d", i, got, prev)
		}
		prev = got
	}
}

// TestHistQuantileEdges is the satellite guard: empty and single-sample
// histograms, out-of-range q, and NaN inputs all yield defined results.
func TestHistQuantileEdges(t *testing.T) {
	cases := []struct {
		name       string
		add        []struct{ ms, n float64 }
		q          float64
		wantBucket int
	}{
		{"empty-p99", nil, 0.99, -1},
		{"empty-p0", nil, 0, -1},
		{"single-sample-p99", []struct{ ms, n float64 }{{10, 1}}, 0.99, BucketIndex(10)},
		{"single-sample-p1", []struct{ ms, n float64 }{{10, 1}}, 0.01, BucketIndex(10)},
		{"single-sample-q0", []struct{ ms, n float64 }{{10, 1}}, 0, BucketIndex(10)},
		{"single-sample-q-nan", []struct{ ms, n float64 }{{10, 1}}, math.NaN(), BucketIndex(10)},
		{"single-sample-q-over", []struct{ ms, n float64 }{{10, 1}}, 7, BucketIndex(10)},
		{"single-sample-q-neg", []struct{ ms, n float64 }{{10, 1}}, -3, BucketIndex(10)},
		{"two-buckets-median", []struct{ ms, n float64 }{{1, 50}, {100, 50}}, 0.5, BucketIndex(1)},
		{"two-buckets-p99", []struct{ ms, n float64 }{{1, 50}, {100, 50}}, 0.99, BucketIndex(100)},
		{"nan-sample", []struct{ ms, n float64 }{{math.NaN(), 3}}, 0.5, 0},
		{"negative-sample", []struct{ ms, n float64 }{{-4, 3}}, 0.5, 0},
		{"inf-sample", []struct{ ms, n float64 }{{math.Inf(1), 3}}, 0.99, histBuckets - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h hist
			for _, a := range tc.add {
				h.add(BucketIndex(a.ms), a.ms, int64(a.n))
			}
			if got := h.quantileBucket(tc.q); got != tc.wantBucket {
				t.Fatalf("quantileBucket(%v) = %d, want %d", tc.q, got, tc.wantBucket)
			}
			want := 0.0
			if tc.wantBucket >= 0 {
				want = BucketBound(tc.wantBucket)
			}
			if got := h.quantile(tc.q); got != want {
				t.Fatalf("quantile(%v) = %g, want %g", tc.q, got, want)
			}
		})
	}
}

// TestHistAddIgnoresNonPositiveCounts: zero or negative counts are
// dropped rather than corrupting the totals.
func TestHistAddIgnoresNonPositiveCounts(t *testing.T) {
	var h hist
	h.add(BucketIndex(5), 5, 0)
	h.add(BucketIndex(5), 5, -3)
	if h.total != 0 || h.sum != 0 {
		t.Fatalf("non-positive adds leaked: total=%d sum=%g", h.total, h.sum)
	}
	h.add(BucketIndex(5), 5, 2)
	if h.total != 2 || h.sum != 10 {
		t.Fatalf("add(5,2): total=%d sum=%g", h.total, h.sum)
	}
}

// TestHistExemplars covers the exemplar table lifecycle: disabled by
// default, first-trace-wins per bucket, reset clears but keeps the
// table, and mergeExemplars adopts only into empty buckets.
func TestHistExemplars(t *testing.T) {
	var h hist
	if h.needsExemplar(BucketIndex(5)) {
		t.Fatal("needsExemplar must be false with exemplars disabled")
	}
	h.setExemplar(BucketIndex(5), 5, 42) // no-op, must not panic
	if h.exemplarAt(BucketIndex(5)) != (exemplar{}) {
		t.Fatal("disabled hist returned an exemplar")
	}

	h.enableExemplars()
	h.enableExemplars() // idempotent
	if !h.needsExemplar(BucketIndex(5)) {
		t.Fatal("empty bucket should need an exemplar")
	}
	h.setExemplar(BucketIndex(5), 5, 0) // id 0 is "none", must not claim the slot
	if !h.needsExemplar(BucketIndex(5)) {
		t.Fatal("id 0 must not claim a bucket")
	}
	h.setExemplar(BucketIndex(5), 5, 42)
	h.setExemplar(BucketIndex(5.1), 5.1, 99) // same bucket: first wins
	if got := h.exemplarAt(BucketIndex(5)); got.id != 42 || got.ms != 5 {
		t.Fatalf("exemplar = %+v, want id 42 ms 5", got)
	}
	if h.exemplarAt(-1) != (exemplar{}) || h.exemplarAt(histBuckets) != (exemplar{}) {
		t.Fatal("out-of-range exemplarAt must return zero")
	}

	var other hist
	other.enableExemplars()
	other.setExemplar(BucketIndex(5), 5, 7)      // h already has bucket(5) -> not adopted
	other.setExemplar(BucketIndex(500), 500, 11) // h lacks bucket(500) -> adopted
	h.mergeExemplars(&other)
	if got := h.exemplarAt(BucketIndex(5)); got.id != 42 {
		t.Fatalf("mergeExemplars overwrote a held bucket: %+v", got)
	}
	if got := h.exemplarAt(BucketIndex(500)); got.id != 11 {
		t.Fatalf("mergeExemplars did not adopt empty bucket: %+v", got)
	}

	h.add(BucketIndex(5), 5, 3)
	h.reset()
	if h.total != 0 {
		t.Fatal("reset kept counts")
	}
	if h.ex == nil {
		t.Fatal("reset dropped the exemplar table")
	}
	if !h.needsExemplar(BucketIndex(5)) {
		t.Fatal("reset must clear exemplars")
	}
}

// TestHistMergeSkipsExemplars: merge folds counts only; a value copy of
// a hist shares the exemplar pointer, so merging exemplars there would
// corrupt the original. The explicit mergeExemplars is the only path.
func TestHistMergeSkipsExemplars(t *testing.T) {
	var a, b hist
	a.enableExemplars()
	b.enableExemplars()
	b.add(BucketIndex(5), 5, 4)
	b.setExemplar(BucketIndex(5), 5, 9)

	copied := a // value copy: shares a.ex
	copied.merge(&b)
	if copied.total != 4 || copied.counts[BucketIndex(5)] != 4 {
		t.Fatalf("merge lost counts: %+v", copied)
	}
	if a.exemplarAt(BucketIndex(5)).id != 0 {
		t.Fatal("merge leaked exemplars through the shared pointer")
	}
	if copied.sum != b.sum {
		t.Fatalf("merge lost sum: %g != %g", copied.sum, b.sum)
	}
}

// logBucketIndex is the histogram's defining formula, computed with
// math.Log on every call. BucketIndex must return exactly what it
// returns for every float64.
func logBucketIndex(ms float64) int {
	if !(ms > histBaseMs) { // also catches NaN, zero, negatives
		return 0
	}
	idx := int(math.Log(ms/histBaseMs)/math.Log(histGrowth)) + 1
	if idx >= histBuckets || idx < 0 { // +Inf yields a huge or wrapped index
		return histBuckets - 1
	}
	return idx
}

// bucketEdgeValues are the inputs at the ends of the float64 line and
// around the base bound, where clamping rather than the log decides.
var bucketEdgeValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	-1, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, math.MaxFloat64, math.MaxFloat64 / 4, math.MaxFloat64/4 + 0x1p970,
	histBaseMs, math.Nextafter(histBaseMs, 0), math.Nextafter(histBaseMs, 1),
	1e12, 1e300,
}

// checkBucketAround compares BucketIndex with the log formula at x and
// the floats up to k ulps either side of it.
func checkBucketAround(t *testing.T, x float64, k int) {
	t.Helper()
	lo, hi := x, x
	for j := 0; j <= k; j++ {
		for _, v := range []float64{lo, hi} {
			if got, want := BucketIndex(v), logBucketIndex(v); got != want {
				t.Fatalf("BucketIndex(%v) = %d, log formula %d (%#x)", v, got, want, math.Float64bits(v))
			}
		}
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
	}
}

// TestBucketStartsAreExact pins the table itself: each start is in its
// bucket by the log formula, and the float just below it is not.
func TestBucketStartsAreExact(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		x := bucketStart[i]
		if got := logBucketIndex(x); got != i {
			t.Fatalf("bucketStart[%d] = %v is in bucket %d", i, x, got)
		}
		if got := logBucketIndex(math.Nextafter(x, 0)); got != i-1 {
			t.Fatalf("the float below bucketStart[%d] = %v is in bucket %d, want %d", i, x, got, i-1)
		}
	}
}

// TestBucketIndexMatchesLogAtBoundaries checks every bucket boundary —
// each table start and each BucketBound, ±1 ulp and a little further —
// and the edge values.
func TestBucketIndexMatchesLogAtBoundaries(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		if i > 0 {
			checkBucketAround(t, bucketStart[i], 64)
		}
		checkBucketAround(t, BucketBound(i), 64)
	}
	for _, x := range bucketEdgeValues {
		checkBucketAround(t, x, 1)
	}
}

// FuzzBucketIndexMatchesLog compares BucketIndex with the log formula
// over arbitrary float64 bit patterns.
func FuzzBucketIndexMatchesLog(f *testing.F) {
	for _, x := range bucketEdgeValues {
		f.Add(math.Float64bits(x))
	}
	for i := 1; i < histBuckets; i++ {
		f.Add(math.Float64bits(bucketStart[i]))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if got, want := BucketIndex(x), logBucketIndex(x); got != want {
			t.Fatalf("BucketIndex(%v) = %d, log formula %d (%#x)", x, got, want, bits)
		}
	})
}
