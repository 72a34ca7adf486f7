package fabric

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// referenceLive computes the live set without the index: scan every
// service ever created, keep the live ones, sort by name.
func referenceLive(c *Cluster) []*Service {
	var out []*Service
	for _, s := range c.services {
		if s.Alive() {
			out = append(out, s)
		}
	}
	sortServicesByName(out)
	return out
}

// checkLiveIndex compares every live-set accessor with referenceLive.
func checkLiveIndex(t *testing.T, c *Cluster, step string) {
	t.Helper()
	want := referenceLive(c)
	var swept []*Service
	c.EachLiveService(func(s *Service) { swept = append(swept, s) })
	if !slices.Equal(swept, want) {
		t.Fatalf("%s: EachLiveService visited %v, want %v", step, serviceNames(swept), serviceNames(want))
	}
	if got := c.LiveServices(); !slices.Equal(got, want) {
		t.Fatalf("%s: LiveServices = %v, want %v", step, serviceNames(got), serviceNames(want))
	}
	if got := c.LiveServiceCount(); got != len(want) {
		t.Fatalf("%s: LiveServiceCount = %d, want %d", step, got, len(want))
	}
}

func serviceNames(svcs []*Service) []string {
	names := make([]string, len(svcs))
	for i, s := range svcs {
		names[i] = s.Name
	}
	return names
}

// TestLiveIndexMatchesMapScan drives random creates, drops, re-creates
// of dropped names and failing creates, and after every step checks the
// live index against a scan of the service map.
func TestLiveIndexMatchesMapScan(t *testing.T) {
	c := newTestCluster(t, 5, 1.0)
	rnd := rand.New(rand.NewPCG(13, 42))
	// Names of varying length, so name order differs from creation
	// order and from numeric order ("db10" < "db2").
	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("db%d", rnd.IntN(1000))
	}
	var created, dropped, recreated, noCores, exists int
	for step := 0; step < 2000; step++ {
		name := names[rnd.IntN(len(names))]
		prev, known := c.services[name]
		if rnd.IntN(3) == 0 {
			err := c.DropService(name)
			switch {
			case err == nil:
				dropped++
			case !errors.Is(err, ErrNoSuchService):
				t.Fatalf("step %d: drop %s: %v", step, name, err)
			}
		} else {
			// Up to 6 replicas on 5 nodes and up to 24 cores each: some
			// creates fail on replica count, some on capacity.
			_, err := c.CreateService(name, 1+rnd.IntN(6), float64(1+rnd.IntN(24)), nil)
			switch {
			case err == nil && known:
				recreated++
			case err == nil:
				created++
			case errors.Is(err, ErrInsufficientCores):
				noCores++
			case errors.Is(err, ErrServiceExists):
				exists++
			default:
				t.Fatalf("step %d: create %s: %v", step, name, err)
			}
			if err != nil && c.services[name] != prev {
				t.Fatalf("step %d: failed create of %s replaced the map entry", step, name)
			}
		}
		checkLiveIndex(t, c, fmt.Sprintf("step %d (%s)", step, name))
	}
	t.Logf("created %d, re-created %d, dropped %d, insufficient cores %d, exists %d",
		created, recreated, dropped, noCores, exists)
	if created == 0 || recreated == 0 || dropped == 0 || noCores == 0 || exists == 0 {
		t.Fatal("the random walk missed an operation kind; change its seed")
	}
}

// TestEachLiveServiceNested: a sweep started inside another sweep's
// callback gets its own snapshot and sees every live service, and the
// outer sweep still visits every service once.
func TestEachLiveServiceNested(t *testing.T) {
	c := newTestCluster(t, 4, 1.0)
	for _, name := range []string{"c", "a", "d", "b"} {
		if _, err := c.CreateService(name, 1, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a", "b", "c", "d"}
	var outer []string
	c.EachLiveService(func(s *Service) {
		outer = append(outer, s.Name)
		var inner []string
		c.EachLiveService(func(s *Service) { inner = append(inner, s.Name) })
		if !slices.Equal(inner, want) {
			t.Fatalf("nested sweep under %s visited %v, want %v", s.Name, inner, want)
		}
	})
	if !slices.Equal(outer, want) {
		t.Fatalf("outer sweep visited %v, want %v", outer, want)
	}
	checkLiveIndex(t, c, "after nested sweeps")
}

// TestEachLiveServiceCreateInCallback: services created inside the
// callback, sorting both before and after the one being visited, are
// not visited by the running sweep but are live afterwards.
func TestEachLiveServiceCreateInCallback(t *testing.T) {
	c := newTestCluster(t, 4, 1.0)
	for _, name := range []string{"m1", "m2", "m3"} {
		if _, err := c.CreateService(name, 1, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	c.EachLiveService(func(s *Service) {
		visited = append(visited, s.Name)
		for _, name := range []string{"a-" + s.Name, "z-" + s.Name} {
			if _, err := c.CreateService(name, 1, 2, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := []string{"m1", "m2", "m3"}; !slices.Equal(visited, want) {
		t.Fatalf("sweep visited %v, want %v", visited, want)
	}
	if got := c.LiveServiceCount(); got != 9 {
		t.Fatalf("live services after the sweep = %d, want 9", got)
	}
	checkLiveIndex(t, c, "after creating in the callback")
}

// TestEachLiveServiceAllocationFree pins the sweep at zero allocations
// once its snapshot buffer has grown.
func TestEachLiveServiceAllocationFree(t *testing.T) {
	c := newTestCluster(t, 8, 1.0)
	for i := 0; i < 200; i++ {
		if _, err := c.CreateService(fmt.Sprintf("svc-%03d", i), 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	count := func(*Service) { n++ }
	allocs := testing.AllocsPerRun(100, func() { c.EachLiveService(count) })
	if allocs != 0 {
		t.Fatalf("EachLiveService allocated %.1f times per call, want 0", allocs)
	}
	if n != 101*200 {
		t.Fatalf("visited %d services, want %d", n, 101*200)
	}
}
