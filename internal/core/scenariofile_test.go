package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"toto/internal/slo"
)

func TestParseScenarioFileDefaults(t *testing.T) {
	sf, err := ParseScenarioFile([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := sf.Build(DefaultModels().Set)
	if sc.Density != 1.1 || sc.Nodes != 14 {
		t.Errorf("defaults: density=%v nodes=%d", sc.Density, sc.Nodes)
	}
	if sc.Duration != 48*time.Hour || sc.BootstrapDuration != 6*time.Hour {
		t.Errorf("durations: %v, %v", sc.Duration, sc.BootstrapDuration)
	}
	if sc.Seeds.Population == 0 {
		t.Error("default seeds not applied")
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("built scenario invalid: %v", err)
	}
}

func TestParseScenarioFileFull(t *testing.T) {
	data := []byte(`{
		"name": "densify-120",
		"nodes": 20,
		"density": 1.2,
		"days": 6,
		"bootstrapHours": 12,
		"population": {"premiumBC": 10, "standardGP": 50},
		"seeds": {"population": 1, "models": 2, "plb": 3, "bootstrap": 4},
		"upgradeStartHours": 24,
		"upgradePerNodeHours": 0.5
	}`)
	sf, err := ParseScenarioFile(data)
	if err != nil {
		t.Fatal(err)
	}
	sc := sf.Build(DefaultModels().Set)
	if sc.Name != "densify-120" || sc.Nodes != 20 || sc.Density != 1.2 {
		t.Errorf("scenario = %s/%d/%v", sc.Name, sc.Nodes, sc.Density)
	}
	if sc.Duration != 6*24*time.Hour || sc.BootstrapDuration != 12*time.Hour {
		t.Errorf("durations = %v, %v", sc.Duration, sc.BootstrapDuration)
	}
	if sc.Population.Counts[slo.PremiumBC] != 10 || sc.Population.Counts[slo.StandardGP] != 50 {
		t.Errorf("population = %v", sc.Population.Counts)
	}
	if sc.Seeds != (Seeds{Population: 1, Models: 2, PLB: 3, Bootstrap: 4}) {
		t.Errorf("seeds = %+v", sc.Seeds)
	}
	if sc.UpgradeStart != 24*time.Hour || sc.UpgradePerNode != 30*time.Minute {
		t.Errorf("upgrade = %v / %v", sc.UpgradeStart, sc.UpgradePerNode)
	}
}

func TestParseScenarioFileRejectsTypos(t *testing.T) {
	if _, err := ParseScenarioFile([]byte(`{"densty": 1.2}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseScenarioFile([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ParseScenarioFile([]byte(`{"days": -1}`)); err == nil {
		t.Error("negative days accepted")
	}
	// Knobs the traffic, chaos and slow-node specs no longer carry fail
	// by name.
	for key, doc := range map[string]string{
		"queueDepth":             `{"traffic": {"seed": 1, "queueDepth": 4}}`,
		"disableInvariantChecks": `{"chaos": {"seed": 1, "disableInvariantChecks": true, "faults": []}}`,
		"ewmaAlpha":              `{"slowNode": {"ewmaAlpha": 0.2}}`,
		"threshold":              `{"slowNode": {"threshold": 1.75}}`,
	} {
		if _, err := ParseScenarioFile([]byte(doc)); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("removed key %s: error %v", key, err)
		}
	}
}

// FuzzParseScenarioFile feeds arbitrary documents through the scenario
// file's whole intake: decode, Build, and Scenario.Validate. Each input
// must end in an error or a valid scenario, never a panic. The corpus is
// seeded from scenarios/*.json.
func FuzzParseScenarioFile(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no scenario files to seed the corpus")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"days": -1}`))
	f.Add([]byte(`{"slowNode": {"minSamples": 4, "drainHeadroom": 1}}`))
	f.Add([]byte(`{"topology": {"faultDomains": 4, "upgradeDomains": 3}, "upgrade": {"startHours": 2}}`))

	set := DefaultModels().Set
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := ParseScenarioFile(data)
		if err != nil {
			if sf != nil {
				t.Fatalf("ParseScenarioFile returned a file with error %v", err)
			}
			return
		}
		sc := sf.Build(set)
		if sc == nil {
			t.Fatal("Build returned nil for an accepted file")
		}
		if err := sc.Validate(); err != nil {
			return
		}
		if sc.Nodes < 1 || sc.Density <= 0 || sc.Duration <= 0 || sc.Models != set {
			t.Fatalf("valid scenario with nodes=%d density=%v duration=%v", sc.Nodes, sc.Density, sc.Duration)
		}
	})
}

func TestScenarioFileRunsEndToEnd(t *testing.T) {
	sf, err := ParseScenarioFile([]byte(`{
		"name": "file-run", "density": 1.0, "days": 0.25, "bootstrapHours": 1,
		"seeds": {"population": 5, "models": 6, "plb": 7, "bootstrap": 8}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sf.Build(DefaultModels().Set))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "file-run" || res.Revenue.Adjusted <= 0 {
		t.Errorf("result = %s, $%v", res.Scenario, res.Revenue.Adjusted)
	}
}
