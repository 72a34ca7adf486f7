package models

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"toto/internal/rng"
)

// refDBStream and refDBHash01 are the original fmt + hash/fnv
// implementations of dbStream and dbHash01. The keyed FNV-1a versions
// must reproduce them bit for bit: every golden and fingerprint depends
// on these streams.
func refDBStream(seed uint64, db string, bucket int64) *rng.Source {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, db, bucket)
	return rng.New(h.Sum64())
}

func refDBHash01(seed uint64, db, salt string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, db, salt)
	return float64(h.Sum64()>>11) / (1 << 53)
}

// checkDBHash compares both hashes, driven through NewSeedKey and
// SeedKey.DB, against the references for one key, including the first
// draws of the derived stream.
func checkDBHash(t *testing.T, seed uint64, db string, bucket int64, salt string) {
	t.Helper()
	key := NewSeedKey(seed).DB(db)
	if got, want := dbHash01(key, salt), refDBHash01(seed, db, salt); got != want {
		t.Fatalf("dbHash01(%d, %q, %q) = %v, reference %v", seed, db, salt, got, want)
	}
	got, want := dbStream(key, bucket), refDBStream(seed, db, bucket)
	for i := 0; i < 3; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("dbStream(%d, %q, %d) draw %d = %#x, reference %#x", seed, db, bucket, i, g, w)
		}
	}
}

func TestDBHashMatchesReference(t *testing.T) {
	seeds := []uint64{0, 1, 7, 1 << 32, math.MaxUint64}
	dbs := []string{"", "db-gp-000001", "init-bc-0042", "données-δ", "\xff\x00/", "a/b/c"}
	buckets := []int64{0, 1, -1, -1000, -1000 - 17, 1_000_000, 1_000_000 + 504, 2_000_000, 2_000_000 + 3, math.MaxInt64, math.MinInt64}
	salts := []string{"initial", "rapid", "cpu-idle", ""}
	for _, seed := range seeds {
		for _, db := range dbs {
			for i, bucket := range buckets {
				checkDBHash(t, seed, db, bucket, salts[i%len(salts)])
			}
		}
	}
}

func FuzzDBHashMatchesReference(f *testing.F) {
	f.Add(uint64(0), "", int64(-1), "initial")
	f.Add(uint64(math.MaxUint64), "db-bc-000017", int64(-1017), "rapid")
	f.Add(uint64(7), "données", int64(2_000_000), "cpu-idle")
	f.Fuzz(func(t *testing.T, seed uint64, db string, bucket int64, salt string) {
		checkDBHash(t, seed, db, bucket, salt)
	})
}

// TestModelNextAllocationFree pins the per-report model evaluations at
// zero heap allocations: they run once per replica per report interval
// for the whole benchmark.
func TestModelNextAllocationFree(t *testing.T) {
	disk := testDiskModel(true)
	disk.Initial = &InitialGrowthModel{Probability: 1, Duration: 30 * time.Minute, Bins: []GrowthBin{{LoGB: 10, HiGB: 20}}}
	disk.Rapid = &RapidGrowthModel{
		Probability: 1, SteadyDur: 0, IncreaseDur: time.Hour, SteadyBetweenDur: time.Hour, DecreaseDur: time.Hour,
		IncreaseBins: []GrowthBin{{LoGB: 50, HiGB: 90}},
	}
	ctx := EvalContext{Key: NewSeedKey(7).DB("db-bc-000123"), Created: monday, Now: monday.Add(20 * time.Minute), Prev: 100, MaxGB: 1000}
	if !disk.HasInitialGrowth(ctx.Key) || !disk.HasRapidGrowth(ctx.Key) {
		t.Fatal("test database is not in both growth subsets")
	}
	if state, _ := disk.Rapid.StateAt(ctx.Created, ctx.Now); state != StateRapidIncrease {
		t.Fatalf("rapid state = %v, want %v", state, StateRapidIncrease)
	}
	mem := &MemoryModel{Target: disk.Steady, WarmRate: 0.5, ColdStartGB: 1, SecondaryFactor: 0.5, ReportInterval: 20 * time.Minute}
	cpu := &CPUModel{TargetFraction: disk.Steady, IdleFraction: 0.1, SecondaryFactor: 0.3, ReportInterval: 20 * time.Minute}
	for name, fn := range map[string]func(EvalContext) float64{
		"DiskUsageModel.Next":       disk.Next,
		"MemoryModel.Next":          mem.Next,
		"MemoryModel.NextSecondary": mem.NextSecondary,
		"CPUModel.Next":             cpu.Next,
	} {
		if allocs := testing.AllocsPerRun(200, func() { fn(ctx) }); allocs != 0 {
			t.Errorf("%s allocates %v times per report, want 0", name, allocs)
		}
	}
}
