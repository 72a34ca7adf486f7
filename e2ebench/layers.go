package main

import (
	"path"
	"sort"
	"strings"

	"toto/internal/core"
	"toto/internal/obs"
)

// span is one closed span on the tracer's wall-clock timeline, in
// microseconds.
type span struct {
	name       string
	id, parent int64
	start, end int64
}

// spanAgg totals the spans of one name.
type spanAgg struct {
	n      int
	selfUS int64
}

// wallSpans extracts the wall-clock spans from a tracer. Parent links
// stay within a track, so spans from parallel tracks never nest.
func wallSpans(t *obs.Tracer) []span {
	var out []span
	for _, ev := range t.TraceEvents() {
		if ev.PID != obs.WallPID || ev.Ph != "X" {
			continue
		}
		id, _ := ev.Args["span_id"].(int64)
		parent, _ := ev.Args["parent_id"].(int64)
		out = append(out, span{name: ev.Name, id: id, parent: parent, start: ev.TS, end: ev.TS + ev.Dur})
	}
	return out
}

// selfTimes totals, per span name, the count and the self time: each
// span's duration minus the part of it that its child spans cover.
// Spans of one name on parallel tracks add up, so their sum compares
// with CPU time, not wall time.
func selfTimes(spans []span) map[string]spanAgg {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]spanAgg)
	for _, s := range spans {
		a := out[s.name]
		a.n++
		a.selfUS += s.end - s.start - covered(s, children[s.id])
		out[s.name] = a
	}
	return out
}

// covered returns how much of p's interval the kids cover, counting
// overlapping kids once.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return total
}

const internalPrefix = "toto/internal/"

// funcPackage returns the import path of a profiled function name such
// as "toto/internal/fabric.(*Cluster).EachLiveService.func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// innermostLayer returns the index of the innermost frame that belongs to
// a toto/internal package, and that package's name (the last element of
// its path: "toto/internal/obs/journal" is layer "journal"). It returns
// -1 when no frame does.
func innermostLayer(frames []string) (int, string) {
	for i, f := range frames {
		if p := funcPackage(f); strings.HasPrefix(p, internalPrefix) {
			return i, path.Base(p)
		}
	}
	return -1, ""
}

const (
	eachLiveService = "toto/internal/fabric.(*Cluster).EachLiveService"
	sortByName      = "toto/internal/fabric.sortServicesByName"
	unmarshalModels = "toto/internal/models.UnmarshalModelSetXML"
	dbHash01        = "toto/internal/models.dbHash01"
	dbStream        = "toto/internal/models.dbStream"
)

// profileLayers attributes CPU profile samples to layers:
//   - <layer>.cpu_s: samples whose innermost toto/internal frame is in
//     that layer;
//   - runtime.other_cpu_s: samples with no toto/internal frame;
//   - fabric.live_sort_s: samples whose innermost toto/internal frame is
//     Cluster.EachLiveService or the name sort it calls;
//   - models.decode_s and models.hash_s: samples with a model-set decode,
//     or a per-report dbHash01/dbStream, anywhere on the stack.
func profileLayers(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		out["profile.total_cpu_s"] += sec
		i, layer := innermostLayer(s.frames)
		if i < 0 {
			out["runtime.other_cpu_s"] += sec
			continue
		}
		out[layer+".cpu_s"] += sec
		if isLiveSort(s.frames[i:]) {
			out["fabric.live_sort_s"] += sec
		}
		decode, hash := false, false
		for _, f := range s.frames[i:] {
			decode = decode || f == unmarshalModels
			hash = hash || strings.HasPrefix(f, dbHash01) || strings.HasPrefix(f, dbStream)
		}
		if decode {
			out["models.decode_s"] += sec
		}
		if hash {
			out["models.hash_s"] += sec
		}
	}
	return out
}

// isLiveSort reports whether a stack, starting at its innermost
// toto/internal frame, is EachLiveService's own work: the frame is
// EachLiveService itself, or the name sort called from it.
func isLiveSort(frames []string) bool {
	if strings.HasPrefix(frames[0], eachLiveService) {
		return true
	}
	if !strings.HasPrefix(frames[0], sortByName) {
		return false
	}
	// The sort's caller is the next toto/internal frame outside it.
	for _, f := range frames[1:] {
		if strings.HasPrefix(f, sortByName) || !strings.HasPrefix(funcPackage(f), internalPrefix) {
			continue
		}
		return strings.HasPrefix(f, eachLiveService)
	}
	return false
}

// resultCounts sums the work counters of a run's results: the traffic
// plane, the chaos engine, and the alert engine.
func resultCounts(results []*core.Result, out map[string]float64) {
	var hedgeWins, considered, kept float64
	for _, r := range results {
		if st := r.Traffic; st != nil {
			out["traffic.arrivals"] += float64(st.Arrivals)
			out["traffic.failed"] += float64(st.Failed)
			out["traffic.hedges"] += float64(st.Hedges)
			out["traffic.hedges_denied"] += float64(st.HedgesDenied)
			hedgeWins += float64(st.HedgeWins)
			if rt := st.Reqtrace; rt != nil {
				considered += float64(rt.Considered)
				kept += float64(rt.Kept)
			}
		}
		if r.Chaos != nil {
			out["chaos.invariant_checks"] += float64(r.Chaos.InvariantChecks)
		}
		if r.Alerts != nil {
			out["alert.fired"] += float64(r.Alerts.Fired)
		}
	}
	out["traffic.hedge_win_ratio"] = ratio(hedgeWins, out["traffic.hedges"])
	out["reqtrace.kept_ratio"] = ratio(kept, considered)
}

// registryCounts copies the Observer registry's counters that the
// per-layer table reports.
func registryCounts(reg *obs.Registry, out map[string]float64) {
	c := reg.Snapshot().Counters
	for _, name := range []string{
		"fabric.annealing_iterations", "fabric.placement_attempts", "fabric.failovers",
		"fabric.balance_moves", "fabric.build_retries", "fabric.naming_reads",
		"rgmanager.evictions", "population.creates", "population.drops", "population.failures",
	} {
		out[name] = float64(c[name])
	}
	attempts := float64(c["fabric.placement_attempts"])
	out["fabric.placement_ok_ratio"] = 1 - ratio(float64(c["fabric.placement_failures"]), attempts)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
