package fleet

import (
	"os"
	"testing"

	"toto/internal/core"
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

// TestReqtraceOnOffSameFingerprint is a metamorphic pair at the
// core.Run level: request tracing observes the modeled plane and never
// steers it. The traced run, with its sampler counters cleared, has the
// fingerprint of the same run with tracing off — every draw of the
// arrival, latency, chaos and placement streams is where it was.
func TestReqtraceOnOffSameFingerprint(t *testing.T) {
	traced := tracedWeek(t)
	if traced.Traffic == nil || traced.Traffic.Reqtrace == nil {
		t.Fatal("traffic-week-traced.json must carry a reqtrace section")
	}
	untraced := tracedWeek(t)
	spec := *untraced.Traffic
	spec.Reqtrace = nil
	untraced.Traffic = &spec

	on, err := core.Run(traced)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	off, err := core.Run(untraced)
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	rt := on.Traffic.Reqtrace
	if rt == nil || rt.Kept == 0 || rt.Dropped == 0 {
		t.Fatalf("traced run kept or dropped nothing: %+v", rt)
	}
	if off.Traffic.Reqtrace != nil {
		t.Fatal("untraced run reported sampler stats")
	}
	on.Traffic.Reqtrace = nil
	if a, b := Fingerprint(on), Fingerprint(off); a != b {
		t.Fatalf("tracing moved the modeled run: traced %s, untraced %s", a, b)
	}
}
