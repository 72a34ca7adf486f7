package trace

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDiurnalTableMatchesClosedForm checks the tabulated shape against
// the closed form it is built from, bit for bit, at all 24 hours.
func TestDiurnalTableMatchesClosedForm(t *testing.T) {
	for h := 0; h < 24; h++ {
		d := float64(h) - 13
		want := 0.35 + 0.65*math.Exp(-d*d/(2*16))
		if got := diurnal(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("diurnal(%d) = %v, closed form %v", h, got, want)
		}
		if DiurnalShape(h) != diurnal(h) {
			t.Errorf("DiurnalShape(%d) differs from diurnal", h)
		}
	}
}

// TestHourAtMatchesTime checks the integer hour of every sample of a
// 14-day trace against time.Time.Hour at each interval that divides an
// hour.
func TestHourAtMatchesTime(t *testing.T) {
	for _, iv := range []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute,
		15 * time.Minute, 20 * time.Minute, 30 * time.Minute, time.Hour} {
		samples := int(14 * 24 * time.Hour / iv)
		for s := 0; s < samples; s++ {
			d := time.Duration(s) * iv
			if got, want := hourAt(d), Epoch.Add(d).Hour(); got != want {
				t.Fatalf("interval %v sample %d: hourAt = %d, time.Hour = %d", iv, s, got, want)
			}
		}
	}
}

// TestDiskTracesIndependentOfParallelism generates the same traces on
// one and on four procs: each database draws from its own stream and
// fills its own slot, so the output must not depend on scheduling.
func TestDiskTracesIndependentOfParallelism(t *testing.T) {
	cfg := DefaultDiskTraceConfig(11)
	cfg.Days = 3
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial := GenerateDiskTraces(cfg)
	runtime.GOMAXPROCS(4)
	parallel := GenerateDiskTraces(cfg)
	if len(serial) != 400 {
		t.Fatalf("%d traces, want 400", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Fatalf("trace %d (%s) differs between GOMAXPROCS 1 and 4", i, serial[i].DB)
			}
		}
		t.Fatal("traces differ between GOMAXPROCS 1 and 4")
	}
}

// mustPanic runs f and returns its panic message, failing the test if f
// returns normally.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
				if msg == "" {
					msg = "non-string panic"
				}
			}
		}()
		f()
	}()
	if msg == "" {
		t.Fatal("no panic")
	}
	return msg
}

func TestDiskTraceRejectsNonPositiveDays(t *testing.T) {
	for _, days := range []int{0, -1} {
		cfg := DefaultDiskTraceConfig(1)
		cfg.Days = days
		if msg := mustPanic(t, func() { GenerateDiskTraces(cfg) }); !strings.Contains(msg, "non-positive trace length") {
			t.Errorf("Days %d: panic %q", days, msg)
		}
	}
}

// TestDiskTraceRejectsIntervalNotDividingHour: with a 7-minute interval
// the whole number of samples per hour (8) is not the real rate (8.57),
// which would skew every per-sample growth rate.
func TestDiskTraceRejectsIntervalNotDividingHour(t *testing.T) {
	for _, iv := range []time.Duration{7 * time.Minute, 2 * time.Hour, 0, -5 * time.Minute} {
		cfg := DefaultDiskTraceConfig(1)
		cfg.Interval = iv
		if msg := mustPanic(t, func() { GenerateDiskTraces(cfg) }); !strings.Contains(msg, "divide an hour") {
			t.Errorf("Interval %v: panic %q", iv, msg)
		}
	}
}
