package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{name: "core.run", id: 1, start: 0, end: 100},
		{name: "core.report_disk", id: 2, parent: 1, start: 10, end: 30},
		{name: "core.report_disk", id: 3, parent: 1, start: 25, end: 50}, // overlaps its sibling
		{name: "plb.place", id: 4, parent: 2, start: 12, end: 20},
		{name: "plb.place", id: 5, parent: 1, start: 95, end: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]spanAgg{
		"core.run":         {n: 1, selfUS: 100 - 40 - 5},
		"core.report_disk": {n: 2, selfUS: (20 - 8) + 25},
		"plb.place":        {n: 2, selfUS: 8 + 25},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestSelfTimesParallelTracks(t *testing.T) {
	// Two density runs on their own tracks over the same wall interval:
	// parent links stay within a track, so their self times add up past
	// the wall time.
	spans := []span{
		{name: "core.measure", id: 1, start: 0, end: 100},
		{name: "core.report_disk", id: 2, parent: 1, start: 10, end: 40},
		{name: "core.measure", id: 3, start: 0, end: 100},
		{name: "core.report_disk", id: 4, parent: 3, start: 20, end: 90},
	}
	got := selfTimes(spans)
	if m := got["core.measure"]; m != (spanAgg{n: 2, selfUS: 70 + 30}) {
		t.Errorf("core.measure: got %+v", m)
	}
	if r := got["core.report_disk"]; r != (spanAgg{n: 2, selfUS: 30 + 70}) {
		t.Errorf("core.report_disk: got %+v", r)
	}
}

func TestInnermostLayer(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		index  int
		layer  string
	}{
		{[]string{
			"runtime.mallocgc",
			"fmt.Fprintf",
			"toto/internal/models.dbHash01",
			"toto/internal/models.(*DiskUsageModel).HasInitialGrowth",
			"toto/internal/rgmanager.(*Manager).ReportDisk",
		}, 2, "models"},
		{[]string{
			"slices.pdqsortCmpFunc[go.shape.*toto/internal/fabric.Service]",
			"toto/internal/obs/journal.(*Writer).Append",
		}, 1, "journal"},
		{[]string{"toto/internal/simclock.(*flatHeap[go.shape.int]).push"}, 0, "simclock"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, -1, ""},
		{[]string{"main.runOnce", "toto/e2ebench.helper"}, -1, ""},
	} {
		i, layer := innermostLayer(tc.frames)
		if i != tc.index || layer != tc.layer {
			t.Errorf("%v: got (%d, %q), want (%d, %q)", tc.frames, i, layer, tc.index, tc.layer)
		}
	}
}

func TestProfileLayers(t *testing.T) {
	ms := int64(time.Millisecond)
	samples := []cpuSample{
		// The name sort under EachLiveService, called from a traffic tick.
		{frames: []string{
			"strings.Compare",
			"toto/internal/fabric.sortServicesByName.func1",
			"slices.insertionSortCmpFunc[go.shape.*uint8]",
			"toto/internal/fabric.sortServicesByName",
			"toto/internal/fabric.(*Cluster).EachLiveService",
			"toto/internal/traffic.(*Engine).tick",
		}, nanos: 10 * ms},
		// The same sort from another caller is fabric time, not live sort.
		{frames: []string{
			"toto/internal/fabric.sortServicesByName",
			"toto/internal/fabric.(*Cluster).LiveServices",
		}, nanos: 20 * ms},
		// A traffic callback run by EachLiveService is traffic time.
		{frames: []string{
			"toto/internal/traffic.(*Engine).tick.func1",
			"toto/internal/fabric.(*Cluster).EachLiveService",
		}, nanos: 40 * ms},
		{frames: []string{
			"runtime.mallocgc",
			"toto/internal/models.dbStream",
			"toto/internal/models.UnmarshalModelSetXML",
		}, nanos: 80 * ms},
		{frames: []string{"runtime.gcBgMarkWorker"}, nanos: 160 * ms},
	}
	got := profileLayers(samples)
	want := map[string]float64{
		"profile.total_cpu_s": 0.31,
		"fabric.cpu_s":        0.03,
		"fabric.live_sort_s":  0.01,
		"traffic.cpu_s":       0.04,
		"models.cpu_s":        0.08,
		"models.decode_s":     0.08,
		"models.hash_s":       0.08,
		"runtime.other_cpu_s": 0.16,
	}
	for name, w := range want {
		if d := got[name] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: got %g, want %g", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d: %v", len(got), len(want), got)
	}
}

//go:noinline
func burn(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	burn(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inBurn int64
	for _, s := range samples {
		total += s.nanos
		for _, f := range s.frames {
			if f == "toto/e2ebench.burn" {
				inBurn += s.nanos
				break
			}
		}
	}
	if total == 0 || inBurn < total/2 {
		t.Fatalf("decoded %d samples: %v ns total, %v ns in burn", len(samples), total, inBurn)
	}
}

// TestFingerprintCheckIsLive runs the density study at seed offset 1 and
// checks it against the records: it must match offset 1's and fail
// offset 0's, so a run whose simulated output changes cannot pass.
func TestFingerprintCheckIsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four density simulations")
	}
	var recorded map[string][][]string
	if err := json.Unmarshal(recordedJSON, &recorded); err != nil {
		t.Fatal(err)
	}
	rec := recorded["density-study"]
	if len(rec) < 2 {
		t.Fatalf("density-study has %d recorded offsets", len(rec))
	}
	w, err := findWorkload("density-study")
	if err != nil {
		t.Fatal(err)
	}
	p, err := setup(w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fps, _, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFingerprints(fps, rec[1]); err != nil {
		t.Errorf("offset 1 against its own record: %v", err)
	}
	if err := checkFingerprints(fps, rec[0]); err == nil {
		t.Error("offset 1 passed against the offset-0 record")
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's workloads and metrics to
// the ones this program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		kind string
		json []jsonMetric
		src  []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.src) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.kind, len(tc.json), len(tc.src))
			continue
		}
		for i := range tc.src {
			if m := tc.src[i]; tc.json[i] != (jsonMetric{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", tc.kind, i, tc.json[i], tc.src[i])
			}
		}
	}
}
