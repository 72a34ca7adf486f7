package traffic

import (
	"strings"
	"testing"

	"toto/internal/rng"
)

// TestHedgeSpecValidate pins the spec validation: each bad spec is
// rejected with an error naming the offending field.
func TestHedgeSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"budget over cap", Spec{Hedge: &HedgeSpec{BudgetRatio: 0.06}}, "budgetRatio"},
		{"negative budget", Spec{Hedge: &HedgeSpec{BudgetRatio: -0.01}}, "budgetRatio"},
		{"negative rate", Spec{PerCoreRPS: -1}, "perCoreRPS"},
		{"negative slo", Spec{SLOP99Ms: -1}, "sloP99Ms"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
	ok := Spec{
		Classes: &ClassesSpec{},
		Routing: &RoutingSpec{},
		Hedge:   &HedgeSpec{BudgetRatio: 0.05},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid grayfail spec rejected: %v", err)
	}
}

// TestHedgeSpecDefaults checks default resolution and that resolving
// never mutates the caller's hedge sub-spec (a shared pointer).
func TestHedgeSpecDefaults(t *testing.T) {
	in := Spec{Classes: &ClassesSpec{}, Hedge: &HedgeSpec{}}
	out := in.withDefaults()
	if out.PerCoreRPS != 1 || out.SLOP99Ms != 250 || out.Hedge.BudgetRatio != 0.02 {
		t.Errorf("defaults = %+v, hedge %+v", out, out.Hedge)
	}
	if in.Hedge.BudgetRatio != 0 {
		t.Error("withDefaults mutated the caller's hedge sub-spec")
	}
}

// hedgeBudgetModel shadows a hedgeBudget from outside, tracking the
// invariant the tentpole promises: cumulative grants never exceed the
// configured ratio of cumulative fresh arrivals — tokens only ever
// accrue from fresh load, so hedging cannot amplify.
type hedgeBudgetModel struct {
	fresh   int64
	granted int64
}

func (m *hedgeBudgetModel) step(t *testing.T, b *hedgeBudget, ratio float64, fresh int, mean float64, desired int) {
	t.Helper()
	b.refill(fresh, mean, ratio)
	g := b.grant(desired)
	if g > desired || g < 0 {
		t.Fatalf("granted %d of %d desired", g, desired)
	}
	if b.tokens < 0 {
		t.Fatalf("budget went negative: %v", b.tokens)
	}
	m.fresh += int64(fresh)
	m.granted += int64(g)
	if float64(m.granted) > ratio*float64(m.fresh)+1e-6 {
		t.Fatalf("hedge amplification: %d grants from %d arrivals at ratio %v",
			m.granted, m.fresh, ratio)
	}
}

// TestHedgeBudgetRandomOps is the in-repo property test, mirroring
// TestBreakerRandomOps: long seeded sequences against several ratios.
func TestHedgeBudgetRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		ratio := float64(src.Intn(51)) / 1000 // 0 .. 0.05
		b := &hedgeBudget{}
		m := &hedgeBudgetModel{}
		for i := 0; i < 2000; i++ {
			m.step(t, b, ratio, src.Intn(200), src.Float64()*150, src.Intn(300))
		}
	}
}

// FuzzHedgeBudget feeds arbitrary operation tapes to the hedge budget,
// mirroring FuzzBreaker's shape: data[0] picks the ratio (clamped to the
// 0.05 ceiling the spec enforces), then each 3-byte group is (fresh
// arrivals, tick mean, desired hedges). The bound must hold on every
// prefix: grants never exceed ratio × fresh arrivals.
func FuzzHedgeBudget(f *testing.F) {
	f.Add([]byte{50, 100, 60, 200, 0, 0, 10, 30, 30, 255})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{25, 255, 255, 255, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		ratio := float64(int(data[0])%51) / 1000
		b := &hedgeBudget{}
		m := &hedgeBudgetModel{}
		for i := 1; i+2 < len(data); i += 3 {
			m.step(t, b, ratio, int(data[i]), float64(data[i+1]), int(data[i+2]))
		}
	})
}
