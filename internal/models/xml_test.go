package models

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"toto/internal/slo"
)

func sampleModelSet() *ModelSet {
	set := NewModelSet(99)
	set.RingShare = 1.0 / 18

	mk := func(base float64) *HourlyNormal {
		h := NewHourlyNormal()
		for w := 0; w < 2; w++ {
			for hr := 0; hr < 24; hr++ {
				h.Set(HourBucket{Weekend: w == 1, Hour: hr},
					NormalParam{Mean: base + float64(hr), Sigma: 0.5 + float64(w)})
			}
		}
		return h
	}
	set.Create[slo.StandardGP] = mk(40)
	set.Create[slo.PremiumBC] = mk(4)
	set.Drop[slo.StandardGP] = mk(30)
	set.Drop[slo.PremiumBC] = mk(3)

	set.Disk[slo.StandardGP] = &DiskUsageModel{
		Steady:         mk(0.01),
		ReportInterval: 20 * time.Minute,
		Persisted:      false,
	}
	set.Disk[slo.PremiumBC] = &DiskUsageModel{
		Steady:         mk(0.1),
		ReportInterval: 20 * time.Minute,
		Persisted:      true,
		Initial: &InitialGrowthModel{
			Probability: 0.04,
			Duration:    30 * time.Minute,
			Bins:        []GrowthBin{{LoGB: 12, HiGB: 100}, {LoGB: 100, HiGB: 1400}},
		},
		Rapid: &RapidGrowthModel{
			Probability:      0.03,
			SteadyDur:        20 * time.Hour,
			IncreaseDur:      time.Hour,
			SteadyBetweenDur: 2 * time.Hour,
			DecreaseDur:      time.Hour,
			IncreaseBins:     []GrowthBin{{LoGB: 50, HiGB: 400}},
		},
	}
	set.Memory[slo.StandardGP] = &MemoryModel{
		Target:         mk(4),
		WarmRate:       0.5,
		ColdStartGB:    0.5,
		ReportInterval: 20 * time.Minute,
	}
	set.SLOMix[slo.StandardGP] = []SLOWeight{{Name: "GP_Gen5_2", Weight: 0.9}, {Name: "GP_Gen5_4", Weight: 0.1}}
	set.SLOMix[slo.PremiumBC] = []SLOWeight{{Name: "BC_Gen5_2", Weight: 1}}
	set.NewDBDiskGB[slo.StandardGP] = GrowthBin{LoGB: 0.5, HiGB: 24}
	set.NewDBDiskGB[slo.PremiumBC] = GrowthBin{LoGB: 250, HiGB: 900}
	return set
}

func TestXMLRoundTrip(t *testing.T) {
	set := sampleModelSet()
	data, err := set.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModelSetXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != set.Seed || back.RingShare != set.RingShare || back.Frozen != set.Frozen {
		t.Errorf("scalars: %+v", back)
	}
	for _, e := range slo.Editions() {
		if !reflect.DeepEqual(back.Create[e], set.Create[e]) {
			t.Errorf("%s create model mismatch", e)
		}
		if !reflect.DeepEqual(back.Drop[e], set.Drop[e]) {
			t.Errorf("%s drop model mismatch", e)
		}
		if !reflect.DeepEqual(back.Disk[e], set.Disk[e]) {
			t.Errorf("%s disk model mismatch", e)
		}
		if !reflect.DeepEqual(back.Memory[e], set.Memory[e]) {
			t.Errorf("%s memory model mismatch", e)
		}
		if !reflect.DeepEqual(back.SLOMix[e], set.SLOMix[e]) {
			t.Errorf("%s SLO mix mismatch", e)
		}
		if back.NewDBDiskGB[e] != set.NewDBDiskGB[e] {
			t.Errorf("%s new-disk mismatch", e)
		}
	}
}

func TestXMLFrozenFlagRoundTrips(t *testing.T) {
	set := sampleModelSet()
	set.Frozen = true
	data, _ := set.EncodeXML()
	back, err := UnmarshalModelSetXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Frozen {
		t.Error("frozen flag lost")
	}
}

func TestXMLIsDeclarativeAndEditable(t *testing.T) {
	// §3.3.1: "grow disk usage of Premium/BC replicas 2x faster is easily
	// configurable simply by changing XML properties". Simulate an
	// operator edit: scale every BC steady mean by text substitution of a
	// distinctive value.
	set := NewModelSet(1)
	h := NewHourlyNormal()
	h.Set(HourBucket{Hour: 0}, NormalParam{Mean: 0.125, Sigma: 0.01})
	set.Disk[slo.PremiumBC] = &DiskUsageModel{Steady: h, ReportInterval: 20 * time.Minute, Persisted: true}
	data, _ := set.EncodeXML()
	edited := strings.Replace(string(data), `mean="0.125"`, `mean="0.25"`, 1)
	back, err := UnmarshalModelSetXML([]byte(edited))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Disk[slo.PremiumBC].Steady.Cell(HourBucket{Hour: 0}).Mean; got != 0.25 {
		t.Errorf("edited mean = %v, want 0.25", got)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalModelSetXML([]byte("not xml")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestUnmarshalRejectsBadFields(t *testing.T) {
	cases := []struct{ name, xml string }{
		{"zero ring share", `<TotoModels seed="1" ringShare="0" frozen="false"></TotoModels>`},
		{"bad hour", `<TotoModels seed="1" ringShare="1"><CreateModel edition="Standard/GP"><Hour weekend="false" hour="25" mean="1" sigma="1"/></CreateModel></TotoModels>`},
		{"negative sigma", `<TotoModels seed="1" ringShare="1"><CreateModel edition="Standard/GP"><Hour weekend="false" hour="1" mean="1" sigma="-1"/></CreateModel></TotoModels>`},
		{"unknown edition", `<TotoModels seed="1" ringShare="1"><CreateModel edition="Hyperscale"><Hour weekend="false" hour="1" mean="1" sigma="1"/></CreateModel></TotoModels>`},
		{"bad interval", `<TotoModels seed="1" ringShare="1"><DiskUsageModel edition="Standard/GP" persisted="false" reportInterval="soon"></DiskUsageModel></TotoModels>`},
		{"zero interval", `<TotoModels seed="1" ringShare="1"><DiskUsageModel edition="Standard/GP" persisted="false" reportInterval="0s"></DiskUsageModel></TotoModels>`},
		{"negative weight", `<TotoModels seed="1" ringShare="1"><CreateModel edition="Standard/GP"><SLOMix><SLO name="x" weight="-1"/></SLOMix></CreateModel></TotoModels>`},
	}
	for _, c := range cases {
		if _, err := UnmarshalModelSetXML([]byte(c.xml)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestDiskReportInterval(t *testing.T) {
	set := NewModelSet(1)
	if set.DiskReportInterval() != 20*time.Minute {
		t.Error("default interval")
	}
	set.Disk[slo.StandardGP] = &DiskUsageModel{Steady: NewHourlyNormal(), ReportInterval: 30 * time.Minute}
	set.Disk[slo.PremiumBC] = &DiskUsageModel{Steady: NewHourlyNormal(), ReportInterval: 10 * time.Minute}
	if set.DiskReportInterval() != 10*time.Minute {
		t.Error("smallest interval not chosen")
	}
}

func TestXMLOmitsEmptyCells(t *testing.T) {
	set := NewModelSet(1)
	h := NewHourlyNormal()
	h.Set(HourBucket{Hour: 5}, NormalParam{Mean: 1, Sigma: 1})
	set.Create[slo.StandardGP] = h
	data, _ := set.EncodeXML()
	if n := strings.Count(string(data), "<Hour "); n != 1 {
		t.Errorf("serialized %d cells, want 1 (empty cells omitted)", n)
	}
}

func TestSetCacheDecodesEachVersionOnce(t *testing.T) {
	data, err := sampleModelSet().EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent readers of one version share one decode.
	cache := &SetCache{}
	sets := make([]*ModelSet, 8)
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sets[i], _ = cache.Decode(5, data)
		}(i)
	}
	wg.Wait()
	for i, s := range sets {
		if s == nil || s != sets[0] {
			t.Fatalf("reader %d got %p, reader 0 got %p", i, s, sets[0])
		}
	}
	if cache.Decodes() != 1 {
		t.Errorf("8 readers of one version decoded %d times", cache.Decodes())
	}
	// The cache keys on the version alone: the same version is not
	// decoded again, a new one is, and a malformed blob's error is kept.
	if s, err := cache.Decode(5, nil); s != sets[0] || err != nil {
		t.Errorf("cached version re-decoded: %p, %v", s, err)
	}
	if s, err := cache.Decode(6, []byte("<broken")); s != nil || err == nil {
		t.Errorf("malformed version 6 = %p, %v", s, err)
	}
	if _, err := cache.Decode(6, data); err == nil {
		t.Error("version 6 lost its decode error")
	}
	if s, _ := cache.Decode(7, data); s == nil || s == sets[0] || cache.Decodes() != 3 {
		t.Errorf("version 7: %p after %d decodes; want a fresh set, 3 decodes", s, cache.Decodes())
	}
}
