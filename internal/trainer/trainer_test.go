package trainer

import (
	"math"
	"sort"
	"testing"
	"time"

	"toto/internal/models"
	"toto/internal/slo"
	"toto/internal/trace"
)

func region(t *testing.T, seed uint64) *trace.Region {
	t.Helper()
	return trace.GenerateRegion(trace.DefaultRegionConfig(seed))
}

func TestTrainCountsBuildsAllCells(t *testing.T) {
	r := region(t, 1)
	ct := TrainCounts(r.Creates[slo.StandardGP], slo.StandardGP, KindCreate)
	if len(ct.Samples) != 48 {
		t.Errorf("buckets = %d, want 48", len(ct.Samples))
	}
	// 28 days: 20 weekday and 8 weekend observations per hour.
	wd := ct.Samples[models.HourBucket{Weekend: false, Hour: 12}]
	we := ct.Samples[models.HourBucket{Weekend: true, Hour: 12}]
	if len(wd) != 20 || len(we) != 8 {
		t.Errorf("samples per cell = %d/%d, want 20/8", len(wd), len(we))
	}
	// The trained model distinguishes weekday from weekend.
	pWD := ct.Model.Cell(models.HourBucket{Weekend: false, Hour: 12})
	pWE := ct.Model.Cell(models.HourBucket{Weekend: true, Hour: 12})
	if pWD.Mean <= pWE.Mean {
		t.Errorf("weekday mean %v not above weekend %v", pWD.Mean, pWE.Mean)
	}
}

func TestKSValidationMostlyPasses(t *testing.T) {
	// §4.1.3: all p-values (except a few) exceed 0.05.
	r := region(t, 2)
	for _, e := range slo.Editions() {
		for _, kind := range []CountKind{KindCreate, KindDrop} {
			counts := r.Creates[e]
			if kind == KindDrop {
				counts = r.Drops[e]
			}
			ct := TrainCounts(counts, e, kind)
			if rej := ct.RejectedCells(0.05); rej > 6 {
				t.Errorf("%s %s: %d of 48 cells rejected", e, kind, rej)
			}
		}
	}
}

func TestPValuesPerHalf(t *testing.T) {
	r := region(t, 3)
	ct := TrainCounts(r.Creates[slo.StandardGP], slo.StandardGP, KindCreate)
	if got := len(ct.PValues(false)); got != 24 {
		t.Errorf("weekday p-values = %d", got)
	}
	if got := len(ct.PValues(true)); got != 24 {
		t.Errorf("weekend p-values = %d", got)
	}
}

func TestCompareCellDistributions(t *testing.T) {
	r := region(t, 4)
	ct := TrainCounts(r.Creates[slo.StandardGP], slo.StandardGP, KindCreate)
	fits := ct.CompareCellDistributions(models.HourBucket{Weekend: false, Hour: 13})
	if len(fits) != 4 {
		t.Fatalf("candidates = %d", len(fits))
	}
	if fits := ct.CompareCellDistributions(models.HourBucket{Weekend: false, Hour: 13}); fits == nil {
		t.Fatal("no fits for populated bucket")
	}
}

func TestSimulationEnsembleTracksProduction(t *testing.T) {
	r := region(t, 5)
	ct := TrainCounts(r.Creates[slo.StandardGP], slo.StandardGP, KindCreate)
	runs, mean := SimulationEnsemble(ct.Model, r.Config.Days, 100, 1, 99)
	if len(runs) != 100 || len(mean) != r.Config.Days*24 {
		t.Fatalf("ensemble shape: %d runs x %d hours", len(runs), len(mean))
	}
	v, err := Validate(r.Creates[slo.StandardGP], mean)
	if err != nil {
		t.Fatal(err)
	}
	// Totals within a few percent (Figure 8: the ensemble mean "nearly
	// overlapped with the production curve").
	if math.Abs(v.ModelTotal-v.ProductionTotal)/v.ProductionTotal > 0.05 {
		t.Errorf("totals: model %v vs production %v", v.ModelTotal, v.ProductionTotal)
	}
	// RMSE of the mean should be well below the typical hourly level.
	if v.RMSE > 15 {
		t.Errorf("ensemble RMSE = %v", v.RMSE)
	}
}

func TestValidateLengthMismatch(t *testing.T) {
	if _, err := Validate([]trace.HourCount{{}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func diskTraces(t *testing.T, seed uint64) []trace.DBTrace {
	t.Helper()
	return trace.GenerateDiskTraces(trace.DefaultDiskTraceConfig(seed))
}

func TestTrainDiskRecoversLabels(t *testing.T) {
	traces := diskTraces(t, 10)
	for _, e := range slo.Editions() {
		dt := TrainDisk(traces, e, DefaultDiskTrainingOptions())

		// Ground truth from the generator.
		truthInitial := map[string]bool{}
		truthRapid := map[string]bool{}
		total := 0
		for _, tr := range traces {
			if tr.Edition != e {
				continue
			}
			total++
			switch tr.Class {
			case trace.ClassInitialGrowth:
				truthInitial[tr.DB] = true
			case trace.ClassRapidGrowth:
				truthRapid[tr.DB] = true
			}
		}
		if dt.TotalDBs != total {
			t.Errorf("%s: trained over %d, want %d", e, dt.TotalDBs, total)
		}

		// Initial-growth recall/precision: the paper's 12GB-in-5-minutes
		// rule is exactly how the traces were generated, so labels should
		// match almost perfectly.
		match := 0
		for _, db := range dt.InitialDBs {
			if truthInitial[db] {
				match++
			}
		}
		if len(truthInitial) > 0 && (match < len(truthInitial)*8/10 || match < len(dt.InitialDBs)*8/10) {
			t.Errorf("%s initial labels: %d found, %d true, %d match", e, len(dt.InitialDBs), len(truthInitial), match)
		}

		// Rapid-growth detection.
		match = 0
		for _, db := range dt.RapidDBs {
			if truthRapid[db] {
				match++
			}
		}
		if len(truthRapid) > 0 && match < len(truthRapid)*7/10 {
			t.Errorf("%s rapid labels: %d found of %d true (%d match)", e, len(dt.RapidDBs), len(truthRapid), match)
		}

		// Steady fraction ~99.8% (§4.2.1).
		if dt.SteadyFraction < 0.985 || dt.SteadyFraction > 0.9999 {
			t.Errorf("%s steady fraction = %v", e, dt.SteadyFraction)
		}
	}
}

func TestTrainedDiskModelShape(t *testing.T) {
	traces := diskTraces(t, 11)
	dt := TrainDisk(traces, slo.PremiumBC, DefaultDiskTrainingOptions())
	m := dt.Model
	if !m.Persisted {
		t.Error("BC disk model must be persisted")
	}
	if m.ReportInterval != 20*time.Minute {
		t.Errorf("interval = %v", m.ReportInterval)
	}
	if m.Initial == nil || len(m.Initial.Bins) == 0 {
		t.Fatal("no initial growth model")
	}
	if m.Initial.Probability <= 0 || m.Initial.Probability > 0.2 {
		t.Errorf("initial probability = %v", m.Initial.Probability)
	}
	// Bins are sorted and contiguous (equi-probable partition).
	for i := 1; i < len(m.Initial.Bins); i++ {
		if m.Initial.Bins[i].LoGB != m.Initial.Bins[i-1].HiGB {
			t.Errorf("bins not contiguous: %+v", m.Initial.Bins)
		}
	}
	if m.Rapid == nil || len(m.Rapid.IncreaseBins) == 0 {
		t.Fatal("no rapid growth model")
	}
	// The generator's cycle is daily: detected cycle should be ~24h.
	cycle := m.Rapid.CycleDuration()
	if cycle < 20*time.Hour || cycle > 28*time.Hour {
		t.Errorf("cycle = %v, want ~24h", cycle)
	}
	// Spike duration ~1h as generated.
	if m.Rapid.IncreaseDur < 40*time.Minute || m.Rapid.IncreaseDur > 2*time.Hour {
		t.Errorf("increase duration = %v", m.Rapid.IncreaseDur)
	}
	gp := TrainDisk(traces, slo.StandardGP, DefaultDiskTrainingOptions())
	if gp.Model.Persisted {
		t.Error("GP disk model must be non-persisted")
	}
}

func TestDetectCycles(t *testing.T) {
	period := 20 * time.Minute
	// Two clean cycles: spike of 3 deltas, gap of 2, drop of 3.
	deltas := []float64{
		0, 0, 10, 10, 10, 0, 0, -10, -10, -10, 0,
		0, 20, 20, 0, -20, -20, 0,
	}
	mags, inc, between, dec := detectCycles(deltas, period, 5)
	if len(mags) != 2 {
		t.Fatalf("cycles = %d (%v)", len(mags), mags)
	}
	if mags[0] != 30 || mags[1] != 40 {
		t.Errorf("magnitudes = %v", mags)
	}
	if inc[0] != 3*period || between[0] != 2*period || dec[0] != 3*period {
		t.Errorf("durations = %v %v %v", inc[0], between[0], dec[0])
	}
	// A spike with no drop is not a cycle.
	mags, _, _, _ = detectCycles([]float64{0, 10, 10, 0, 0, 0}, period, 5)
	if len(mags) != 0 {
		t.Errorf("spike-only series produced cycles: %v", mags)
	}
}

func TestCompareDiskCandidatesOrdering(t *testing.T) {
	traces := diskTraces(t, 12)
	dt := TrainDisk(traces, slo.StandardGP, DefaultDiskTrainingOptions())
	scores, err := CompareDiskCandidates(dt, traces, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("candidates = %d", len(scores))
	}
	byName := map[DiskCandidate]CandidateScore{}
	for _, s := range scores {
		byName[s.Candidate] = s
	}
	// §4.2.2: the hourly normal has comparable-or-smaller DTW and RMSE
	// than the custom binning model; allow a small tolerance for noise.
	hn, bin := byName[CandidateHourlyNormal], byName[CandidateBinning]
	if hn.RMSE > bin.RMSE*1.2 {
		t.Errorf("hourly normal RMSE %v not comparable-or-better than binning %v", hn.RMSE, bin.RMSE)
	}
}

func TestSimulateAverageUsageTracksProduction(t *testing.T) {
	traces := diskTraces(t, 13)
	dt := TrainDisk(traces, slo.PremiumBC, DefaultDiskTrainingOptions())
	prod := AverageUsageCurve(traces, slo.PremiumBC, dt.Opts.DeltaPeriod)
	sim := SimulateAverageUsage(dt, len(prod), prod[0], 7)
	if len(sim) != len(prod) {
		t.Fatalf("lengths differ")
	}
	// Cumulative final levels within ~10% (Figure 9's goal: "the
	// resulting cumulative disk usage from our models to be as close to
	// production as possible over the two week training period").
	pf, sf := prod[len(prod)-1], sim[len(sim)-1]
	if math.Abs(pf-sf)/pf > 0.10 {
		t.Errorf("final usage: production %v vs model %v", pf, sf)
	}
}

func TestAverageUsageCurveEmpty(t *testing.T) {
	if got := AverageUsageCurve(nil, slo.StandardGP, 20*time.Minute); got != nil {
		t.Errorf("empty traces gave %v", got)
	}
}

func TestEquiProbableBinsSortedInModel(t *testing.T) {
	traces := diskTraces(t, 14)
	dt := TrainDisk(traces, slo.PremiumBC, DefaultDiskTrainingOptions())
	if dt.Model.Initial == nil {
		t.Skip("no initial model in this sample")
	}
	bins := dt.Model.Initial.Bins
	sorted := sort.SliceIsSorted(bins, func(i, j int) bool { return bins[i].LoGB < bins[j].LoGB })
	if !sorted {
		t.Errorf("bins not sorted: %+v", bins)
	}
}

// TestWeekClockMatchesBucketOf checks the integer week arithmetic against
// models.BucketOf over two weeks of steps from starts at odd offsets into
// the week, in UTC and (through the fallback) in other locations.
func TestWeekClockMatchesBucketOf(t *testing.T) {
	starts := []time.Time{
		trace.Epoch,
		time.Date(2020, time.June, 6, 23, 47, 13, 500, time.UTC),  // Saturday night
		time.Date(2020, time.June, 7, 0, 0, 0, 1, time.UTC),       // just after Sunday midnight
		time.Date(2019, time.December, 31, 12, 5, 0, 0, time.UTC), // year boundary
		time.Date(2020, time.June, 5, 22, 30, 0, 0, time.FixedZone("UTC+5:30", 5*3600+1800)),
	}
	for _, start := range starts {
		for _, step := range []time.Duration{7 * time.Minute, 20 * time.Minute, time.Hour, 90 * time.Minute} {
			c := newWeekClock(start, step)
			for k := 0; k <= int(14*24*time.Hour/step); k++ {
				b := models.BucketOf(start.Add(time.Duration(k) * step))
				w, h := c.bucket(k)
				if (w == 1) != b.Weekend || h != b.Hour {
					t.Fatalf("start %v step %v k %d: weekClock (%d, %d), BucketOf %+v", start, step, k, w, h, b)
				}
			}
		}
	}
}
