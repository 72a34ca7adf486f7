package traffic_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"toto/internal/chaos"
	"toto/internal/fabric"
	"toto/internal/simclock"
	"toto/internal/traffic"
)

// TestParseSpecRejectsRemovedKeys pins the spec schema: every knob the
// specs no longer carry is rejected by name, so a file that still sets
// one fails loudly instead of silently running the fixed model.
func TestParseSpecRejectsRemovedKeys(t *testing.T) {
	cases := []struct {
		key   string
		parse func([]byte) error
		doc   string
	}{
		{"queueDepth", parseTraffic, `{"seed": 1, "queueDepth": 4}`},
		{"baseErrorRate", parseTraffic, `{"seed": 1, "baseErrorRate": 0.01}`},
		{"tickSeconds", parseTraffic, `{"seed": 1, "tickSeconds": 30}`},
		{"breaker", parseTraffic, `{"seed": 1, "breaker": {"minRequests": 10}}`},
		{"retry", parseTraffic, `{"seed": 1, "retry": {"maxAttempts": 2}}`},
		{"premiumWeight", parseTraffic, `{"seed": 1, "classes": {"premiumWeight": 2}}`},
		{"delayMultiple", parseTraffic, `{"seed": 1, "hedge": {"delayMultiple": 3}}`},
		{"disableInvariantChecks", parseChaos, `{"seed": 1, "disableInvariantChecks": true, "faults": []}`},
	}
	for _, c := range cases {
		err := c.parse([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: accepted", c.key)
			continue
		}
		if !strings.Contains(err.Error(), `"`+c.key+`"`) {
			t.Errorf("%s: error %q does not name the key", c.key, err)
		}
	}
}

func parseTraffic(data []byte) error {
	_, err := traffic.ParseSpec(data)
	return err
}

func parseChaos(data []byte) error {
	_, err := chaos.ParseSpec(data)
	return err
}

// FuzzParseSpec feeds arbitrary documents through the spec's whole
// intake: decode, Validate, and engine construction. Each input must
// error or succeed without panicking; an accepted spec must validate,
// build an engine, and survive a JSON round trip unchanged. The corpus
// is seeded from the traffic sections of scenarios/*.json.
func FuzzParseSpec(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var sf struct {
			Traffic json.RawMessage `json:"traffic"`
		}
		if err := json.Unmarshal(data, &sf); err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		if sf.Traffic != nil {
			f.Add([]byte(sf.Traffic))
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed": 1, "hedge": {"budgetRatio": 0.06}}`))
	f.Add([]byte(`{"perCoreRPS": -1}`))
	f.Add([]byte(`{"reqtrace": {"sampleOneIn": -3}}`))

	clock := simclock.New(harnessStart)
	cluster := fabric.NewCluster(clock, 3, harnessCapacity(), fabric.DefaultConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := traffic.ParseSpec(data)
		if err != nil {
			if spec != nil {
				t.Fatalf("ParseSpec returned a spec with error %v", err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		if _, err := traffic.NewEngine(clock, cluster, spec, nil, nil, nil); err != nil {
			t.Fatalf("accepted spec fails NewEngine: %v", err)
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		again, err := traffic.ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parse %s: %v", out, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec: %+v vs %+v", spec, again)
		}
	})
}
