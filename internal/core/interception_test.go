package core

import (
	"testing"
	"time"

	"toto/internal/models"
)

// sharedSet returns the one model set every RgManager and the Population
// Manager hold, failing when any of them holds another.
func sharedSet(t *testing.T, o *Orchestrator) *models.ModelSet {
	t.Helper()
	o.PopMgr.Wake(o.Clock.Now()) // the daemon reads the key on its wakeups
	set := o.PopMgr.Models()
	for _, n := range o.Cluster.Nodes() {
		if got := o.Manager(n.ID).Models(); got != set {
			t.Fatalf("RgManager on %s holds %p, Population Manager %p", n.ID, got, set)
		}
	}
	return set
}

// TestModelsDecodedOncePerVersion pins the interception path's decode
// discipline: every reader of the model XML shares one decoded set per
// Naming Service version, decoded once for all 14 RgManagers and the
// Population Manager.
func TestModelsDecodedOncePerVersion(t *testing.T) {
	sc := shortScenario(t, 1.0)
	o, err := NewOrchestrator(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if len(o.Cluster.Nodes()) != 14 {
		t.Fatalf("%d nodes, want the paper's 14", len(o.Cluster.Nodes()))
	}

	if err := o.WriteModels(cloneFrozen(sc.Models, true)); err != nil {
		t.Fatal(err)
	}
	frozen := sharedSet(t, o)
	if frozen == nil || !frozen.Frozen || o.models.Decodes() != 1 {
		t.Fatalf("frozen version: set %p, %d decodes; want a frozen set, 1 decode", frozen, o.models.Decodes())
	}

	if err := o.WriteModels(cloneFrozen(sc.Models, false)); err != nil {
		t.Fatal(err)
	}
	live := sharedSet(t, o)
	if live == frozen || live.Frozen || o.models.Decodes() != 2 {
		t.Fatalf("live version: new set %v, %d decodes; want a new live set, 2 decodes", live != frozen, o.models.Decodes())
	}

	// Refresh ticks at an unchanged version decode nothing.
	o.Start()
	o.Clock.RunUntil(sc.Start.Add(time.Hour))
	if sharedSet(t, o) != live || o.models.Decodes() != 2 {
		t.Errorf("unchanged refreshes: %d decodes, want 2", o.models.Decodes())
	}

	// A malformed blob: the RgManagers keep the live set and report the
	// error, the Population Manager stops churn; decoded once.
	o.Cluster.Naming().Put(models.NamingKey, []byte("<broken"))
	for _, n := range o.Cluster.Nodes() {
		if o.Manager(n.ID).Refresh() == nil {
			t.Fatalf("RgManager on %s accepted a malformed blob", n.ID)
		}
		if o.Manager(n.ID).Models() != live {
			t.Fatalf("RgManager on %s dropped its models on a malformed blob", n.ID)
		}
	}
	o.PopMgr.Wake(o.Clock.Now())
	if o.PopMgr.Models() != nil || o.models.Decodes() != 3 {
		t.Errorf("malformed blob: Population Manager holds %p after %d decodes; want nil, 3", o.PopMgr.Models(), o.models.Decodes())
	}

	// A deleted key clears every reader's models.
	o.Cluster.Naming().Delete(models.NamingKey)
	for _, n := range o.Cluster.Nodes() {
		if err := o.Manager(n.ID).Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if sharedSet(t, o) != nil {
		t.Error("deleted key did not clear the models")
	}
}

// TestOneDayRunNamingReads pins the Naming Service load of a 1-day run:
// decoding each model version once must not change how often the
// RgManagers, the Population Manager and the persisted-load protocol
// read the store. The figures were recorded before the decode was
// shared.
func TestOneDayRunNamingReads(t *testing.T) {
	sc := DefaultScenario("day", 1.0, DefaultModels().Set, testSeeds())
	sc.Duration = 24 * time.Hour
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.NamingReads != 15180 || res.Creates != 71 || res.Drops != 27 {
		t.Errorf("1-day run: %d Naming Service reads, %d creates, %d drops; want 15180, 71, 27",
			res.NamingReads, res.Creates, res.Drops)
	}
}
