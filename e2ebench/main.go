// Command e2ebench is Toto's end-to-end benchmark. It runs one workload
// (the paper's density study or a scenario week) through the same entry
// points the CLIs use, one run at a time, each run in a fresh child
// process, for a fixed number of seconds. It checks every run's
// simulated output against recorded fingerprints and prints the
// end-to-end metrics, or with -trace 1 the per-layer table of a traced
// run, as one JSON object on the last line of standard output.
//
//	e2ebench -workload grayfail-week -seed 3 -seconds 30 -trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"toto/internal/core"
	"toto/internal/obs"
)

// metric is one reported metric; better says which direction is an
// improvement.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, as a user sees them. The
// times (unit "s") are scaled to the reference speed (see calibrate).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"allocs", "count", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of the traced run, grouped by layer.
var perLayer = []metric{
	{"setup.train_s", "s", "lower"},
	{"setup.encode_s", "s", "lower"},
	{"models.decode_one_ms", "ms", "lower"},
	{"trace.cpu_s", "s", "lower"},
	{"trainer.cpu_s", "s", "lower"},

	{"simclock.cpu_s", "s", "lower"},

	{"fabric.cpu_s", "s", "lower"},
	{"fabric.live_sort_s", "s", "lower"},
	{"plb.place.n", "count", "lower"},
	{"plb.place.self_s", "s", "lower"},
	{"plb.scan.n", "count", "lower"},
	{"plb.scan.self_s", "s", "lower"},
	{"plb.fix_violations.n", "count", "lower"},
	{"plb.fix_violations.self_s", "s", "lower"},
	{"plb.balance.n", "count", "lower"},
	{"plb.balance.self_s", "s", "lower"},
	{"fabric.annealing_iterations", "count", "lower"},
	{"fabric.placement_attempts", "count", "lower"},
	{"fabric.placement_ok_ratio", "ratio", "higher"},
	{"fabric.failovers", "count", "lower"},
	{"fabric.balance_moves", "count", "lower"},
	{"fabric.build_retries", "count", "lower"},
	{"fabric.naming_reads", "count", "lower"},

	{"core.report_disk.n", "count", "lower"},
	{"core.report_disk.self_s", "s", "lower"},
	{"core.report_memory.n", "count", "lower"},
	{"core.report_memory.self_s", "s", "lower"},
	{"rgmanager.cpu_s", "s", "lower"},
	{"models.cpu_s", "s", "lower"},
	{"models.decode_s", "s", "lower"},
	{"models.hash_s", "s", "lower"},
	{"rgmanager.evictions", "count", "lower"},

	{"population.wake.n", "count", "lower"},
	{"population.wake.self_s", "s", "lower"},
	{"population.cpu_s", "s", "lower"},
	{"population.creates", "count", "higher"},
	{"population.drops", "count", "higher"},
	{"population.failures", "count", "lower"},

	{"traffic.cpu_s", "s", "lower"},
	{"traffic.arrivals", "count", "higher"},
	{"traffic.failed", "count", "lower"},
	{"traffic.hedges", "count", "lower"},
	{"traffic.hedges_denied", "count", "lower"},
	{"traffic.hedge_win_ratio", "ratio", "higher"},

	{"chaos.cpu_s", "s", "lower"},
	{"chaos.invariant_checks", "count", "lower"},

	{"reqtrace.cpu_s", "s", "lower"},
	{"reqtrace.kept_ratio", "ratio", "lower"},
	{"journal.cpu_s", "s", "lower"},
	{"journal.entries", "count", "lower"},
	{"timeseries.cpu_s", "s", "lower"},
	{"alert.cpu_s", "s", "lower"},
	{"alert.fired", "count", "lower"},
	{"telemetry.cpu_s", "s", "lower"},

	{"core.run.self_s", "s", "lower"},
	{"core.bootstrap.self_s", "s", "lower"},
	{"core.measure.self_s", "s", "lower"},
	{"core.cpu_s", "s", "lower"},
	{"obs.cpu_s", "s", "lower"},
	{"rng.cpu_s", "s", "lower"},
	{"stats.cpu_s", "s", "lower"},
	{"slo.cpu_s", "s", "lower"},
	{"revenue.cpu_s", "s", "lower"},
	{"controlplane.cpu_s", "s", "lower"},
	{"pools.cpu_s", "s", "lower"},
	{"bench.cpu_s", "s", "lower"},

	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.other_cpu_s", "s", "lower"},
	{"profile.total_cpu_s", "s", "lower"},

	{"traced.run_s", "s", "lower"},
	{"traced.overhead_ratio", "ratio", "lower"},
	{"calibration.kernel_s", "s", "lower"},
}

// spanMetrics are the spans whose count (.n) and summed self time
// (.self_s) the per-layer table reports.
var spanMetrics = []string{
	"plb.place", "plb.scan", "plb.fix_violations", "plb.balance",
	"core.report_disk", "core.report_memory", "population.wake",
	"core.run", "core.bootstrap", "core.measure",
}

// maxSpans bounds the traced run's span buffer; the traced run fails if
// any span is dropped.
const maxSpans = 1 << 21

// recorded holds, per workload, the fingerprints of every run at each
// seed offset: one per simulation (four for the density study).
//
//go:embed fingerprints.json
var recordedJSON []byte

// runRecord is what one child process reports about its run: the
// end-to-end metrics by name and, for a traced run, the per-layer table
// in the same map.
type runRecord struct {
	Fingerprints []string           `json:"fingerprints"`
	Dropped      int64              `json:"dropped_spans"`
	Values       map[string]float64 `json:"values"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: density-study, grayfail-week or traced-week")
	seed := flag.Uint64("seed", 0, "workload seed; the seed offset is seed modulo the number of recorded offsets")
	seconds := flag.Int("seconds", 30, "how long to keep starting runs")
	trace := flag.Int("trace", 0, "1 reports the per-layer table of traced runs instead of the end-to-end metrics")
	child := flag.Bool("child", false, "run the workload once in this process and print its record (internal)")
	offset := flag.Uint64("offset", 0, "seed offset of a -child run (internal)")
	record := flag.Int("record", 0, "record the fingerprints of this many seed offsets of every workload as JSON on standard output")
	flag.Parse()

	if *record > 0 {
		if err := recordFingerprints(*record); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *child {
		rec, err := runOnce(w, *offset, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	var recorded map[string][][]string
	if err := json.Unmarshal(recordedJSON, &recorded); err != nil {
		fatal(fmt.Errorf("fingerprints.json: %w", err))
	}
	offsets := recorded[w.name]
	if len(offsets) == 0 {
		fatal(fmt.Errorf("no fingerprints recorded for %s", w.name))
	}
	off := *seed % uint64(len(offsets))
	res := measure(w, off, offsets[off], time.Duration(*seconds)*time.Second, *trace == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// runOnce sets the workload up and runs it once, measuring the run. A
// traced run also records spans and a CPU profile from the start of
// set-up and reports the per-layer table.
func runOnce(w workload, offset uint64, traced bool) (*runRecord, error) {
	calBefore := calibrate()
	var o *obs.Obs
	var prof bytes.Buffer
	if traced {
		o = obs.New(obs.Options{MaxTraceEvents: maxSpans})
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile() // no-op once stopped below
	}

	start := time.Now()
	p, err := setup(w, offset, o)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setupS := time.Since(start).Seconds()
	var decode time.Duration
	if traced {
		if decode, err = p.decodeOne(o); err != nil {
			return nil, fmt.Errorf("decode models: %w", err)
		}
	}

	runtime.GC() // start every run from the same clean heap
	u0 := readUsage()
	fps, results, err := p.run()
	u1 := readUsage()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	rec := &runRecord{Fingerprints: fps, Values: map[string]float64{
		"setup_s":     setupS,
		"run_s":       u1.wall.Sub(u0.wall).Seconds(),
		"cpu_s":       (u1.cpu - u0.cpu).Seconds(),
		"allocs":      float64(u1.mallocs - u0.mallocs),
		"alloc_mb":    float64(u1.totalAlloc-u0.totalAlloc) / (1 << 20),
		"peak_rss_mb": peakRSSMB(),
	}}
	if traced {
		pprof.StopCPUProfile()
		v := rec.Values
		v["models.decode_one_ms"] = float64(decode.Microseconds()) / 1e3
		v["runtime.gc_cpu_s"] = u1.gcCPU - u0.gcCPU
		v["runtime.gc_cycles"] = float64(u1.gcCycles - u0.gcCycles)
		if p.journal != nil {
			events, annotations := p.journal.Counts()
			v["journal.entries"] = float64(events + annotations)
		}
		if err := tracedLayers(rec, o, results, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	rec.Values["calib_s"] = (calBefore + calibrate()).Seconds() / 2
	return rec, nil
}

// tracedLayers adds the profile, span and counter metrics of a traced run
// to its record.
func tracedLayers(rec *runRecord, o *obs.Obs, results []*core.Result, prof []byte) error {
	samples, err := decodeCPUProfile(prof)
	if err != nil {
		return err
	}
	v := rec.Values
	for name, x := range profileLayers(samples) {
		v[name] = x
	}
	rec.Dropped = o.Tracer().Dropped()
	spans := selfTimes(wallSpans(o.Tracer()))
	for _, name := range spanMetrics {
		v[name+".n"] = float64(spans[name].n)
		v[name+".self_s"] = float64(spans[name].selfUS) / 1e6
	}
	v["setup.train_s"] = float64(spans["setup.train"].selfUS) / 1e6
	v["setup.encode_s"] = float64(spans["setup.encode"].selfUS) / 1e6
	registryCounts(o.Registry(), v)
	resultCounts(results, v)
	return nil
}

// measure starts runs of the workload, one at a time, until the time is
// up (at least one run; with trace, pairs of an untraced and a traced
// run), checks each against the recorded fingerprints, and returns the
// medians.
func measure(w workload, offset uint64, want []string, d time.Duration, trace bool) result {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	var plain, traced []*runRecord
	attempted, failed := 0, 0
	try := func(tracedRun bool) {
		attempted++
		rec, err := spawn(exe, w, offset, tracedRun)
		if err == nil {
			err = checkFingerprints(rec.Fingerprints, want)
		}
		if err == nil && rec.Dropped > 0 {
			err = fmt.Errorf("traced run dropped %d spans", rec.Dropped)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "e2ebench: %s run %d (offset %d) failed: %v\n", w.name, attempted, offset, err)
			return
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %s run %d: setup %.3fs, run %.3fs, cpu %.3fs, calibration %.3fs, traced %v\n",
			w.name, attempted, rec.Values["setup_s"], rec.Values["run_s"], rec.Values["cpu_s"], rec.Values["calib_s"], tracedRun)
		if tracedRun {
			traced = append(traced, rec)
		} else {
			plain = append(plain, rec)
		}
	}
	deadline := time.Now().Add(d)
	for attempted == 0 || time.Now().Before(deadline) {
		try(false)
		if trace {
			try(true)
		}
	}

	// Per-layer values are medians over the traced runs; the traced run
	// time is compared with the untraced runs of the same invocation.
	medianOf := func(recs []*runRecord, name string) (float64, int) {
		vals := make([]float64, len(recs))
		for i, r := range recs {
			vals[i] = r.Values[name]
		}
		return median(vals), len(vals)
	}
	out := make(map[string]metricValue)
	fmt.Printf("workload %s, seed offset %d: %d runs attempted, %d failed (failed_runs %.3f)\n",
		w.name, offset, attempted, failed, float64(failed)/float64(attempted))
	if !trace {
		// Times are scaled by the reference kernel time over the median
		// kernel time of the same runs.
		calib, _ := medianOf(plain, "calib_s")
		speed := ratio(calibrationRef.Seconds(), calib)
		fmt.Printf("  calibration kernel %.4f s (reference %.4f s)\n", calib, calibrationRef.Seconds())
		for _, m := range endToEnd {
			v, n := medianOf(plain, m.name)
			if m.unit == "s" {
				fmt.Printf("  %-12s %14.4f %-5s median of %d (unscaled %.4f s)\n", m.name, v*speed, m.unit, n, v)
				v *= speed
			} else {
				fmt.Printf("  %-12s %14.4f %-5s median of %d\n", m.name, v, m.unit, n)
			}
			out[m.name] = metricValue{v, m.unit}
		}
	} else {
		for _, m := range perLayer {
			v, n := medianOf(traced, m.name)
			switch m.name {
			case "traced.run_s":
				v, n = medianOf(traced, "run_s")
			case "calibration.kernel_s":
				v, n = medianOf(traced, "calib_s")
			case "traced.overhead_ratio":
				runS, _ := medianOf(plain, "run_s")
				tracedS, _ := medianOf(traced, "run_s")
				v = ratio(tracedS, runS)
			}
			out[m.name] = metricValue{v, m.unit}
			fmt.Printf("  %-28s %14.4f %-5s median of %d\n", m.name, v, m.unit, n)
		}
	}
	return result{
		Correct:   failed == 0 && allAgree(append(plain, traced...)),
		Attempted: attempted,
		Failed:    failed,
		Metrics:   out,
	}
}

// spawn runs the workload once in a child process and decodes its record.
func spawn(exe string, w workload, offset uint64, traced bool) (*runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name,
		"-offset", strconv.FormatUint(offset, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var rec runRecord
	if err := json.Unmarshal(out, &rec); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &rec, nil
}

// allAgree reports whether every run produced the same fingerprints.
func allAgree(recs []*runRecord) bool {
	for _, r := range recs {
		if !slices.Equal(r.Fingerprints, recs[0].Fingerprints) {
			return false
		}
	}
	return len(recs) > 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// recordFingerprints runs every workload at seed offsets 0..n-1 in this
// process and prints the fingerprints.json the benchmark checks against,
// one offset per line.
func recordFingerprints(n int) error {
	var b strings.Builder
	b.WriteString("{\n")
	for i, w := range workloads {
		fmt.Fprintf(&b, "  %q: [\n", w.name)
		for off := 0; off < n; off++ {
			p, err := setup(w, uint64(off), nil)
			if err != nil {
				return err
			}
			fps, _, err := p.run()
			if err != nil {
				return fmt.Errorf("%s offset %d: %w", w.name, off, err)
			}
			line, err := json.Marshal(fps)
			if err != nil {
				return err
			}
			b.WriteString("    " + string(line) + sep(off, n) + "\n")
		}
		b.WriteString("  ]" + sep(i, len(workloads)) + "\n")
	}
	b.WriteString("}\n")
	_, err := os.Stdout.WriteString(b.String())
	return err
}

func sep(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
