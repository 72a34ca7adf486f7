package rgmanager

import (
	"fmt"
	"math"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/rng"
)

// TestPersistedLoadTextMatchesFmt pins the persisted disk load's text
// form to the fmt %g round trip it replaced: the stored bytes, and the
// value read back, must be identical for every finite non-negative load.
func TestPersistedLoadTextMatchesFmt(t *testing.T) {
	values := []float64{
		0, 1, 0.1, 1e-7, 123.456, 1e21, 2048, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, // smallest normal
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
	}
	src := rng.New(11)
	for i := 0; i < 20000; i++ {
		var v float64
		switch i % 4 {
		case 0: // any finite non-negative bit pattern
			v = math.Float64frombits(src.Uint64() &^ (1 << 63))
		case 1: // subnormal
			v = math.Float64frombits(src.Uint64() & 0x000fffffffffffff)
		case 2: // a plausible disk load in GB
			v = src.UniformRange(0, 4096)
		default: // a rounded one, as seeds and clamps produce
			v = math.Round(src.UniformRange(0, 1e6)) / 100
		}
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			values = append(values, v)
		}
	}
	for _, v := range values {
		want := fmt.Sprintf("%g", v)
		got := appendLoad(nil, v)
		if string(got) != want {
			t.Fatalf("appendLoad(%v) = %q, fmt %%g gives %q", v, got, want)
		}
		var ref float64
		if _, err := fmt.Sscanf(want, "%g", &ref); err != nil {
			t.Fatalf("Sscanf(%q): %v", want, err)
		}
		back, ok := parseLoad(got)
		if !ok || back != ref || back != v {
			t.Fatalf("parseLoad(%q) = %v, %v; Sscanf gives %v, stored %v", got, back, ok, ref, v)
		}
	}
	if v, ok := parseLoad([]byte("garbage")); ok || v != 0 {
		t.Errorf("parseLoad(garbage) = %v, %v; want 0, false", v, ok)
	}
}

// TestRefreshUnchangedVersionAllocationFree pins the 15-minute model
// refresh at an unchanged version: one Naming Service read, no copy, no
// decode, no allocation.
func TestRefreshUnchangedVersionAllocationFree(t *testing.T) {
	e := newEnv(t, testModelSet())
	m := e.managers["node-0"]
	naming := e.cluster.Naming()
	before := naming.Reads()
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := naming.Reads() - before; got != 1 {
		t.Errorf("one Refresh made %d Naming Service reads, want 1", got)
	}
	set := m.Models()
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Refresh() }); allocs != 0 {
		t.Errorf("Refresh at an unchanged version allocates %v times, want 0", allocs)
	}
	if m.Models() != set {
		t.Error("Refresh at an unchanged version replaced the model set")
	}
}

func (e *env) writeAndRefresh(t *testing.T, data []byte) (errs int) {
	t.Helper()
	e.cluster.Naming().Put(models.NamingKey, data)
	for _, m := range e.managers {
		if m.Refresh() != nil {
			errs++
		}
	}
	return errs
}

// sameSet reports the one set every Manager holds, failing when they
// disagree.
func (e *env) sameSet(t *testing.T) *models.ModelSet {
	t.Helper()
	set := e.managers["node-0"].Models()
	for id, m := range e.managers {
		if m.Models() != set {
			t.Fatalf("%s holds %p, node-0 holds %p", id, m.Models(), set)
		}
	}
	return set
}

func TestSharedModelsDecodedOncePerVersion(t *testing.T) {
	e := newEnv(t, nil)
	cache := e.decoded
	v1, _ := testModelSet().EncodeXML()
	if errs := e.writeAndRefresh(t, v1); errs != 0 {
		t.Fatalf("%d refresh errors", errs)
	}
	first := e.sameSet(t)
	if first == nil || cache.Decodes() != 1 {
		t.Fatalf("after version 1: set %p, %d decodes; want one decode", first, cache.Decodes())
	}
	// Refreshes at the same version decode nothing.
	for _, m := range e.managers {
		if err := m.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Decodes() != 1 {
		t.Errorf("unchanged refreshes decoded: %d decodes", cache.Decodes())
	}

	// Rewriting identical bytes is still a new version: one more decode.
	if errs := e.writeAndRefresh(t, v1); errs != 0 {
		t.Fatalf("%d refresh errors", errs)
	}
	second := e.sameSet(t)
	if second == first || cache.Decodes() != 2 {
		t.Errorf("after version 2: new set %v, %d decodes; want a new set, 2 decodes", second != first, cache.Decodes())
	}

	// A malformed blob: every Manager keeps the previous set and errors,
	// on every refresh until the key is repaired, with one decode.
	if errs := e.writeAndRefresh(t, []byte("<broken")); errs != len(e.managers) {
		t.Errorf("malformed blob: %d of %d refreshes errored", errs, len(e.managers))
	}
	if e.sameSet(t) != second {
		t.Error("malformed blob replaced the previous set")
	}
	for _, m := range e.managers {
		if m.Refresh() == nil {
			t.Error("second refresh of a malformed blob succeeded")
		}
	}
	if cache.Decodes() != 3 {
		t.Errorf("malformed blob decoded %d times, want once", cache.Decodes()-2)
	}

	// Deleting the key clears every Manager's models.
	e.cluster.Naming().Delete(models.NamingKey)
	for _, m := range e.managers {
		if err := m.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if e.sameSet(t) != nil {
		t.Error("deleted key did not clear the models")
	}
}

// moveTarget returns a node hosting no replica of svc.
func moveTarget(t *testing.T, e *env, svc *fabric.Service) *fabric.Node {
	t.Helper()
	for _, n := range e.cluster.Nodes() {
		free := true
		for _, r := range svc.Replicas {
			free = free && r.Node != n
		}
		if free {
			return n
		}
	}
	t.Fatal("no free node")
	return nil
}

// TestFailoverContinuationProperty checks the §3.3.2 contract over many
// databases, seeds and report times: after a failover, a persisted
// (BC) disk continues exactly from the value in the Naming Service, and
// a non-persisted (GP) disk starts over from zero on the new node.
func TestFailoverContinuationProperty(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 12; trial++ {
		e := newEnv(t, testModelSet())
		set := e.managers["node-0"].Models()
		created := start.Add(time.Duration(src.Intn(72)) * time.Hour)
		now := created.Add(time.Duration(1+src.Intn(200)) * 20 * time.Minute)
		seedGB := src.UniformRange(0, 1500)

		// BC: the old primary reports, the replica fails over, the new
		// primary on another node continues from the persisted value.
		bcName := fmt.Sprintf("bc-%d", trial)
		bc, err := e.cluster.CreateService(bcName, 4, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		info := bcInfo(bcName, created)
		old := bc.Primary()
		e.managerOf(old).SeedLoad(old, info, fabric.MetricDiskGB, seedGB)
		v1, _ := e.managerOf(old).ReportDisk(old, info, now)
		if err := e.cluster.ForceMove(old.ID, moveTarget(t, e, bc).ID); err != nil {
			t.Fatal(err)
		}
		promoted := bc.Primary()
		if promoted == old || e.managerOf(promoted) == e.managerOf(old) {
			t.Fatal("failover did not promote a replica on another node")
		}
		stored, _, _ := e.cluster.Naming().Get(loadNamingKey(bcName))
		if prev, ok := parseLoad(stored); !ok || prev != v1 {
			t.Fatalf("trial %d: Naming Service holds %q, old primary reported %v", trial, stored, v1)
		}
		now2 := now.Add(20 * time.Minute)
		v2, _ := e.managerOf(promoted).ReportDisk(promoted, info, now2)
		want := set.Disk[info.Edition].Next(models.EvalContext{
			Key: models.NewSeedKey(set.Seed).DB(bcName), Created: created, Now: now2, Prev: v1, MaxGB: info.MaxDiskGB,
		})
		if v2 != want {
			t.Errorf("trial %d: BC after failover = %v, want continuation %v", trial, v2, want)
		}

		// GP: the single replica moves; its new incarnation starts cold.
		gpName := fmt.Sprintf("gp-%d", trial)
		gp, err := e.cluster.CreateService(gpName, 1, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		ginfo := gpInfo(gpName, created)
		rep := gp.Replicas[0]
		e.managerOf(rep).SeedLoad(rep, ginfo, fabric.MetricDiskGB, src.UniformRange(1, 60))
		e.managerOf(rep).ReportDisk(rep, ginfo, now)
		if err := e.cluster.ForceMove(rep.ID, moveTarget(t, e, gp).ID); err != nil {
			t.Fatal(err)
		}
		g2, _ := e.managerOf(rep).ReportDisk(rep, ginfo, now2)
		gwant := set.Disk[ginfo.Edition].Next(models.EvalContext{
			Key: models.NewSeedKey(nodeSeed(rep.Node)).DB(gpName), Created: created, Now: now2, Prev: 0, MaxGB: ginfo.MaxDiskGB,
		})
		if g2 != gwant {
			t.Errorf("trial %d: GP after failover = %v, want cold start %v", trial, g2, gwant)
		}
	}
}
