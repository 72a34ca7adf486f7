package fleet

import (
	"os"
	"testing"

	"toto/internal/core"
	"toto/internal/obs/journal"
)

// tracedWeek builds scenarios/traffic-week-traced.json cut to two
// simulated days.
func tracedWeek(t *testing.T) *core.Scenario {
	t.Helper()
	data, err := os.ReadFile("../../scenarios/traffic-week-traced.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := core.ParseScenarioFile(data)
	if err != nil {
		t.Fatal(err)
	}
	sf.Days = 2
	return sf.Build(core.DefaultModels().Set)
}

// untracedWeek is tracedWeek with request tracing off.
func untracedWeek(t *testing.T) *core.Scenario {
	t.Helper()
	sc := tracedWeek(t)
	spec := *sc.Traffic
	spec.Reqtrace = nil
	sc.Traffic = &spec
	return sc
}

// TestObserverOnOffSameFingerprint holds the core.Run-level metamorphic
// pairs: an observer watches the modeled run and never steers it. The
// run with the observer, its own report cleared, has the fingerprint of
// the same run without it — every draw of the arrival, latency, chaos
// and placement streams is where it was.
func TestObserverOnOffSameFingerprint(t *testing.T) {
	var journaled countingWriter
	for _, tc := range []struct {
		name string
		// with builds the scenario with the observer on; clear checks
		// the observer saw the run and removes what only it reports.
		with  func(t *testing.T) *core.Scenario
		clear func(t *testing.T, res *core.Result)
	}{
		{
			name: "reqtrace",
			with: func(t *testing.T) *core.Scenario {
				sc := tracedWeek(t)
				if sc.Traffic == nil || sc.Traffic.Reqtrace == nil {
					t.Fatal("traffic-week-traced.json must carry a reqtrace section")
				}
				return sc
			},
			clear: func(t *testing.T, res *core.Result) {
				rt := res.Traffic.Reqtrace
				if rt == nil || rt.Kept == 0 || rt.Dropped == 0 {
					t.Fatalf("traced run kept or dropped nothing: %+v", rt)
				}
				res.Traffic.Reqtrace = nil
			},
		},
		{
			name: "journal",
			with: func(t *testing.T) *core.Scenario {
				sc := untracedWeek(t)
				sc.Journal = journal.NewWriter(&journaled)
				return sc
			},
			clear: func(t *testing.T, res *core.Result) {
				if journaled == 0 {
					t.Fatal("the journal recorded nothing")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on, err := core.Run(tc.with(t))
			if err != nil {
				t.Fatalf("run with %s: %v", tc.name, err)
			}
			off, err := core.Run(untracedWeek(t))
			if err != nil {
				t.Fatalf("run without %s: %v", tc.name, err)
			}
			if off.Traffic.Reqtrace != nil {
				t.Fatal("untraced run reported sampler stats")
			}
			tc.clear(t, on)
			if a, b := Fingerprint(on), Fingerprint(off); a != b {
				t.Fatalf("%s moved the modeled run: with %s, without %s", tc.name, a, b)
			}
		})
	}
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
