package traffic

import "math"

// The latency histogram: 64 log-spaced buckets from 0.25 ms growing 25%
// per bucket (~320 s at the top), fixed at compile time so quantile
// extraction is deterministic and allocation-free. Requests are recorded
// in aggregate — counts at modeled latencies — never one at a time.
const (
	histBuckets = 64
	histBaseMs  = 0.25
	histGrowth  = 1.25
)

// Buckets returns the histogram's bucket count, for analysis tools that
// need to walk the layout without importing its internals.
func Buckets() int { return histBuckets }

// BucketBound returns bucket i's inclusive upper bound in ms — the
// exact float the quantile functions report, so an analysis tool can
// match a journaled p99 back to its bucket by float equality.
func BucketBound(i int) float64 {
	return histBaseMs * math.Pow(histGrowth, float64(i))
}

// BucketIndex maps a latency to its bucket, clamping NaN, negative, and
// infinite inputs into the edge buckets instead of panicking: a
// degenerate modeled latency degrades the histogram, never the run.
// Bucket i > 0 holds latencies from 0.25·1.25^(i-1) up to 0.25·1.25^i,
// the top bucket is open-ended, and the boundaries are exactly where
//
//	int(math.Log(ms/0.25)/math.Log(1.25)) + 1
//
// changes value, rounding of math.Log included. A six-step search of
// bucketStart finds the bucket without calling math.Log; NaN fails
// every comparison and lands in bucket 0.
func BucketIndex(ms float64) int {
	i := 0
	for step := histBuckets / 2; step > 0; step /= 2 {
		if bucketStart[i+step] <= ms {
			i += step
		}
	}
	return i
}

// bucketStart[i] is the smallest float64 in bucket i or above;
// bucketStart[0] is -Inf. For ms > 0.25 the formula above yields at
// least i exactly when math.Log(ms/0.25)/math.Log(1.25) >= i-1, a
// condition that only turns from false to true as ms grows. Positive
// floats order like their bit patterns, so bisecting bit patterns on
// that condition finds each start exactly, and BucketIndex returns the
// largest i whose start is <= ms.
var bucketStart = func() (t [histBuckets]float64) {
	t[0] = math.Inf(-1)
	logGrowth := math.Log(histGrowth)
	lo := math.Float64bits(histBaseMs) // 0.25 itself is bucket 0
	for i := 1; i < histBuckets; i++ {
		hi := math.Float64bits(math.Inf(1)) // +Inf is in the top bucket
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if math.Log(math.Float64frombits(mid)/histBaseMs)/logGrowth >= float64(i-1) {
				hi = mid
			} else {
				lo = mid
			}
		}
		t[i] = math.Float64frombits(hi)
	}
	return t
}()

// exemplar ties a kept trace to the histogram bucket its latency landed
// in — the OpenMetrics exemplar idea on the sim clock.
type exemplar struct {
	id uint64  // trace ID, 0 = no exemplar yet
	ms float64 // the exemplar's exact latency
}

type hist struct {
	counts [histBuckets]int64
	total  int64
	sum    float64
	// ex is nil unless request tracing is enabled; a heap pointer keeps
	// the common hist copies cheap and the disabled path untouched.
	ex *[histBuckets]exemplar
}

// enableExemplars allocates the exemplar table (idempotent).
func (h *hist) enableExemplars() {
	if h.ex == nil {
		h.ex = new([histBuckets]exemplar)
	}
}

// add records n observations at ms, whose bucket the caller looked up
// once as b = BucketIndex(ms).
func (h *hist) add(b int, ms float64, n int64) {
	if n <= 0 {
		return
	}
	if math.IsNaN(ms) || ms < 0 {
		ms = 0
	}
	h.counts[b] += n
	h.total += n
	h.sum += ms * float64(n)
}

// needsExemplar reports whether bucket b has no exemplar yet. False
// when exemplars are disabled.
func (h *hist) needsExemplar(b int) bool {
	return h.ex != nil && h.ex[b].id == 0
}

// setExemplar attaches a kept trace at latency ms to its bucket b; the
// first trace into a bucket wins so the exemplar is the one the sampler
// kept for that reason.
func (h *hist) setExemplar(b int, ms float64, id uint64) {
	if h.ex == nil || id == 0 {
		return
	}
	if e := &h.ex[b]; e.id == 0 {
		e.id = id
		e.ms = ms
	}
}

// exemplarAt returns bucket i's exemplar (zero when none).
func (h *hist) exemplarAt(i int) exemplar {
	if h.ex == nil || i < 0 || i >= histBuckets {
		return exemplar{}
	}
	return h.ex[i]
}

// quantileBucket returns the index of the bucket holding the q-th
// observation, -1 when the histogram is empty. q is clamped into (0, 1]
// so a degenerate single-sample hour or an out-of-range q can never
// index past the layout.
func (h *hist) quantileBucket(q float64) int {
	if h.total <= 0 {
		return -1
	}
	if math.IsNaN(q) || q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(h.total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > h.total {
		target = h.total
	}
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return i
		}
	}
	return histBuckets - 1
}

// quantile returns the upper bound (ms) of the bucket holding the q-th
// observation; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	i := h.quantileBucket(q)
	if i < 0 {
		return 0
	}
	return BucketBound(i)
}

// merge folds other's counts into h. Exemplars are deliberately not
// merged here — hist values are copied around (Stats, flush) and the
// exemplar table is a shared pointer; mergeExemplars is the explicit,
// owner-only operation.
func (h *hist) merge(other *hist) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
}

// mergeExemplars adopts other's exemplars for buckets that have none.
func (h *hist) mergeExemplars(other *hist) {
	if h.ex == nil || other.ex == nil {
		return
	}
	for i := range other.ex {
		if h.ex[i].id == 0 && other.ex[i].id != 0 {
			h.ex[i] = other.ex[i]
		}
	}
}

// reset zeroes the histogram, keeping the exemplar table allocated but
// cleared: each observation hour starts exemplar-fresh.
func (h *hist) reset() {
	ex := h.ex
	*h = hist{}
	if ex != nil {
		*ex = [histBuckets]exemplar{}
		h.ex = ex
	}
}
