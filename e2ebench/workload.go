package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"toto/internal/bench"
	"toto/internal/core"
	"toto/internal/fleet"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/obs/journal"
	"toto/internal/obs/timeseries"
)

// workload is one fixed input of the benchmark, run through the same
// public entry points the CLIs use.
type workload struct {
	name string
	// scenario is the scenario file, relative to the repository root; an
	// empty scenario means the paper's density study (what totobench runs).
	scenario string
	// journaled runs the scenario the way totosim -journal-out does: a
	// journal to a discarding sink plus a series store.
	journaled bool
}

var workloads = []workload{
	{name: "density-study"},
	{name: "grayfail-week", scenario: "scenarios/grayfail-week.json"},
	{name: "traced-week", scenario: "scenarios/traffic-week-traced.json", journaled: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// prepared is a workload after set-up: everything built before the first
// simulated event.
type prepared struct {
	models  []byte            // the encoded default model set
	study   bench.StudyConfig // density study
	sc      *core.Scenario    // scenario weeks
	journal *journal.Writer
}

// setup does the work every totosim and totobench process does before
// its first simulated event: train the default models, encode them, and
// parse and build the scenario. offset shifts the scenario's seeds (see
// offsetSeeds). o, when set, records a span around each step and
// instruments the run.
func setup(w workload, offset uint64, o *obs.Obs) (*prepared, error) {
	sp := o.Span("setup.train")
	tm := core.DefaultModels()
	sp.End()

	sp = o.Span("setup.encode")
	blob, err := tm.Set.EncodeXML()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("encode models: %w", err)
	}

	if w.scenario == "" {
		cfg := bench.DefaultStudyConfig()
		offsetSeeds(&cfg.Seeds, offset)
		cfg.Obs = o
		return &prepared{models: blob, study: cfg}, nil
	}

	sp = o.Span("setup.scenario")
	defer sp.End()
	data, err := os.ReadFile(w.scenario)
	if err != nil {
		return nil, err
	}
	sf, err := core.ParseScenarioFile(data)
	if err != nil {
		return nil, err
	}
	sc := sf.Build(tm.Set)
	offsetSeeds(&sc.Seeds, offset)
	sc.Obs = o
	p := &prepared{models: blob, sc: sc}
	if w.journaled {
		p.journal = journal.NewWriter(io.Discard)
		p.journal.Meta(sc.Name, sc.Start, map[string]string{"tool": "e2ebench"})
		sc.Journal = p.journal
		// Sized like totosim's store: the whole run at node resolution.
		resolution := sc.NodeTelemetryInterval
		if resolution <= 0 {
			resolution = 10 * time.Minute
		}
		sc.SeriesStore = timeseries.NewStore(resolution, int((sc.BootstrapDuration+sc.Duration)/resolution)+2)
	}
	return p, nil
}

// offsetSeeds adds offset to the PLB seed: repeats of one experiment
// differ only there, as in the paper, whose PLB annealing seed could not
// be pinned across runs (§5.2). The population, model and bootstrap
// seeds stay fixed, so every offset runs the same databases and models;
// some other initial populations cannot even be placed.
func offsetSeeds(s *core.Seeds, offset uint64) {
	s.PLB += offset
}

// decodeOne times one decode of the encoded model set under its own
// span: the per-decode cost every RgManager and the Population Manager
// pay.
func (p *prepared) decodeOne(o *obs.Obs) (time.Duration, error) {
	sp := o.Span("models.decode_one")
	start := time.Now()
	_, err := models.UnmarshalModelSetXML(p.models)
	d := time.Since(start)
	sp.End()
	return d, err
}

// run executes the prepared workload once and returns the fingerprint
// of every simulation it ran, in a fixed order.
func (p *prepared) run() ([]string, []*core.Result, error) {
	var results []*core.Result
	if p.sc == nil {
		st, err := bench.RunStudy(p.study)
		if err != nil {
			return nil, nil, err
		}
		results = st.Results
	} else {
		res, err := core.Run(p.sc)
		if err != nil {
			return nil, nil, err
		}
		if p.journal != nil {
			if err := p.journal.Close(); err != nil {
				return nil, nil, fmt.Errorf("journal: %w", err)
			}
		}
		results = []*core.Result{res}
	}
	fps := make([]string, len(results))
	for i, r := range results {
		fps[i] = fleet.Fingerprint(r)
	}
	return fps, results, nil
}

// checkFingerprints reports whether a run reproduced the recorded
// fingerprints exactly.
func checkFingerprints(got, want []string) error {
	if len(want) == 0 {
		return fmt.Errorf("no recorded fingerprints")
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d fingerprints, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("fingerprint %d is %s, recorded %s", i, got[i], want[i])
		}
	}
	return nil
}
