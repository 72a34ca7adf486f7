package rgmanager

import (
	"fmt"
	"testing"
	"time"

	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/simclock"
	"toto/internal/slo"
)

var start = time.Date(2020, time.June, 1, 0, 0, 0, 0, time.UTC)

func flatHourly(mean, sigma float64) *models.HourlyNormal {
	h := models.NewHourlyNormal()
	for w := 0; w < 2; w++ {
		for hr := 0; hr < 24; hr++ {
			h.Set(models.HourBucket{Weekend: w == 1, Hour: hr}, models.NormalParam{Mean: mean, Sigma: sigma})
		}
	}
	return h
}

func testModelSet() *models.ModelSet {
	set := models.NewModelSet(7)
	set.Disk[slo.PremiumBC] = &models.DiskUsageModel{
		Steady:         flatHourly(0.1, 0.01),
		ReportInterval: 20 * time.Minute,
		Persisted:      true,
	}
	set.Disk[slo.StandardGP] = &models.DiskUsageModel{
		Steady:         flatHourly(0.02, 0.005),
		ReportInterval: 20 * time.Minute,
		Persisted:      false,
	}
	set.Memory[slo.StandardGP] = &models.MemoryModel{
		Target:         flatHourly(8, 0.5),
		WarmRate:       0.5,
		ColdStartGB:    1,
		ReportInterval: 20 * time.Minute,
	}
	return set
}

// env wires a small cluster with one RgManager per node, sharing one
// model cache as the orchestrator wires them, and the test model set
// written into the Naming Service.
type env struct {
	cluster  *fabric.Cluster
	managers map[string]*Manager
	decoded  *models.SetCache
}

func newEnv(t *testing.T, set *models.ModelSet) *env {
	t.Helper()
	cfg := fabric.DefaultConfig()
	cluster := fabric.NewCluster(simclock.New(start), 5, map[fabric.MetricName]float64{
		fabric.MetricCores:    64,
		fabric.MetricDiskGB:   8192,
		fabric.MetricMemoryGB: 512,
	}, cfg)
	e := &env{cluster: cluster, managers: make(map[string]*Manager), decoded: &models.SetCache{}}
	for _, n := range cluster.Nodes() {
		e.managers[n.ID] = New(n.ID, cluster.Naming(), e.decoded, nodeSeed(n))
	}
	if set != nil {
		data, err := set.EncodeXML()
		if err != nil {
			t.Fatal(err)
		}
		cluster.Naming().Put(models.NamingKey, data)
		for _, m := range e.managers {
			if err := m.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

func (e *env) managerOf(r *fabric.Replica) *Manager { return e.managers[r.Node.ID] }

// nodeSeed is the unique seed newEnv gives node n's Manager.
func nodeSeed(n *fabric.Node) uint64 { return uint64(1000 + n.Index()) }

func bcInfo(name string, created time.Time) DBInfo {
	return DBInfo{Name: name, Edition: slo.PremiumBC, Created: created, MaxDiskGB: 2048, MaxMemoryGB: 20}
}

func gpInfo(name string, created time.Time) DBInfo {
	return DBInfo{Name: name, Edition: slo.StandardGP, Created: created, MaxDiskGB: 64, MaxMemoryGB: 10}
}

func TestNoModelMeansActualReporting(t *testing.T) {
	e := newEnv(t, nil) // no XML in the naming service
	svc, _ := e.cluster.CreateService("db", 1, 2, nil)
	rep := svc.Replicas[0]
	if _, ok := e.managerOf(rep).ReportDisk(rep, gpInfo("db", start), start); ok {
		t.Error("model path taken with no models loaded")
	}
}

func TestRefreshVersionShortCircuit(t *testing.T) {
	e := newEnv(t, testModelSet())
	m := e.managers["node-0"]
	first := m.Models()
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if m.Models() != first {
		t.Error("unchanged version re-parsed the XML")
	}
	// Overwrite: refresh must pick up the new set.
	set2 := testModelSet()
	set2.Frozen = true
	data, _ := set2.EncodeXML()
	e.cluster.Naming().Put(models.NamingKey, data)
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if m.Models() == first || !m.Models().Frozen {
		t.Error("refresh did not load the overwritten XML")
	}
	// Removing the key clears the models.
	e.cluster.Naming().Delete(models.NamingKey)
	m.Refresh()
	if m.Models() != nil {
		t.Error("deleted key did not clear models")
	}
}

// TestRefreshRekeysOnSeedChange checks that the seed key a Manager
// caches follows the model set: a Manager refreshed from a set at one
// seed to the same models at another reports exactly what a fresh
// Manager at the second seed reports, for every metric it models.
func TestRefreshRekeysOnSeedChange(t *testing.T) {
	withSeed := func(seed uint64) *models.ModelSet {
		set := testModelSet()
		set.Seed = seed
		set.CPU[slo.StandardGP] = &models.CPUModel{TargetFraction: flatHourly(0.5, 0.2), ReportInterval: 20 * time.Minute}
		return set
	}
	t1 := start.Add(40 * time.Minute)
	t2 := start.Add(2 * time.Hour)
	// report primes the same previous values on e's two probe databases
	// and returns their persisted disk, non-persisted disk, memory and
	// CPU reports at t2, plus the nodes they ran on.
	report := func(e *env) (got [4]float64, nodes [2]string) {
		bc, _ := e.cluster.Service("bc")
		gp, _ := e.cluster.Service("gp")
		p, r := bc.Primary(), gp.Replicas[0]
		bci, gpi := bcInfo("bc", start), gpInfo("gp", start)
		e.managerOf(p).SeedLoad(p, bci, fabric.MetricDiskGB, 500)
		e.managerOf(r).SeedLoad(r, gpi, fabric.MetricDiskGB, 30)
		e.managerOf(r).SeedLoad(r, gpi, fabric.MetricMemoryGB, 4)
		got[0], _ = e.managerOf(p).ReportDisk(p, bci, t2)
		got[1], _ = e.managerOf(r).ReportDisk(r, gpi, t2)
		got[2], _ = e.managerOf(r).ReportMemory(r, gpi, t2)
		got[3], _ = e.managerOf(r).ReportCPU(r, gpi, 4, t2)
		return got, [2]string{p.Node.ID, r.Node.ID}
	}
	fresh := func(seed uint64) *env {
		e := newEnv(t, withSeed(seed))
		if _, err := e.cluster.CreateService("bc", 4, 2, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.cluster.CreateService("gp", 1, 4, nil); err != nil {
			t.Fatal(err)
		}
		return e
	}

	rekeyed := fresh(7)
	bc, _ := rekeyed.cluster.Service("bc")
	gp, _ := rekeyed.cluster.Service("gp")
	p, r := bc.Primary(), gp.Replicas[0]
	rekeyed.managerOf(p).ReportDisk(p, bcInfo("bc", start), t1)
	rekeyed.managerOf(r).ReportDisk(r, gpInfo("gp", start), t1)
	rekeyed.managerOf(r).ReportMemory(r, gpInfo("gp", start), t1)
	rekeyed.managerOf(r).ReportCPU(r, gpInfo("gp", start), 4, t1)
	data, err := withSeed(8).EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	rekeyed.cluster.Naming().Put(models.NamingKey, data)
	for _, m := range rekeyed.managers {
		if err := m.Refresh(); err != nil {
			t.Fatal(err)
		}
	}

	got, gotNodes := report(rekeyed)
	want, wantNodes := report(fresh(8))
	if gotNodes != wantNodes {
		t.Fatalf("probe replicas on %v, fresh deployment placed them on %v", gotNodes, wantNodes)
	}
	for i, name := range []string{"persisted disk", "non-persisted disk", "memory", "CPU"} {
		if got[i] != want[i] {
			t.Errorf("%s after the seed change = %v, fresh Manager at the new seed reports %v", name, got[i], want[i])
		}
	}
	if old, _ := report(fresh(7)); old[0] == want[0] {
		t.Fatalf("persisted disk is %v at both seeds; the check cannot see a stale key", old[0])
	}
}

func TestRefreshRejectsMalformedXML(t *testing.T) {
	e := newEnv(t, testModelSet())
	e.cluster.Naming().Put(models.NamingKey, []byte("<broken"))
	if err := e.managers["node-0"].Refresh(); err == nil {
		t.Error("malformed XML accepted")
	}
}

func TestPersistedDiskSurvivesFailover(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	primary := svc.Primary()
	e.managerOf(primary).SeedLoad(primary, info, fabric.MetricDiskGB, 500)

	// Primary executes the model and persists.
	now := start.Add(20 * time.Minute)
	v1, ok := e.managerOf(primary).ReportDisk(primary, info, now)
	if !ok || v1 <= 500 || v1 > 501 {
		t.Fatalf("primary report = %v, %v", v1, ok)
	}
	// Secondaries read the persisted value without executing the model.
	for _, r := range svc.Replicas {
		if r.Role != fabric.Secondary {
			continue
		}
		v, ok := e.managerOf(r).ReportDisk(r, info, now)
		if !ok || v != v1 {
			t.Fatalf("secondary report = %v, want %v", v, v1)
		}
	}

	// Fail the primary over to a node with a DIFFERENT manager; the newly
	// promoted primary must continue from the persisted value.
	var target *fabric.Node
	for _, n := range e.cluster.Nodes() {
		hosts := false
		for _, r := range svc.Replicas {
			if r.Node == n {
				hosts = true
			}
		}
		if !hosts {
			target = n
		}
	}
	oldPrimary := primary
	if err := e.cluster.ForceMove(oldPrimary.ID, target.ID); err != nil {
		t.Fatal(err)
	}
	newPrimary := svc.Primary()
	if newPrimary == oldPrimary {
		t.Fatal("no promotion happened")
	}
	now2 := now.Add(20 * time.Minute)
	v2, ok := e.managerOf(newPrimary).ReportDisk(newPrimary, info, now2)
	if !ok {
		t.Fatal("model path lost after failover")
	}
	if v2 < v1 || v2 > v1+1 {
		t.Errorf("post-failover disk = %v, want continuation of %v", v2, v1)
	}
}

func TestNonPersistedDiskResetsOnFailover(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("gp1", 1, 2, nil)
	info := gpInfo("gp1", start)
	rep := svc.Replicas[0]
	e.managerOf(rep).SeedLoad(rep, info, fabric.MetricDiskGB, 30)

	now := start.Add(20 * time.Minute)
	v1, ok := e.managerOf(rep).ReportDisk(rep, info, now)
	if !ok || v1 < 30 {
		t.Fatalf("report = %v", v1)
	}
	// Move to another node: tempDB is lost, the value resets.
	var target *fabric.Node
	for _, n := range e.cluster.Nodes() {
		if n != rep.Node {
			target = n
			break
		}
	}
	if err := e.cluster.ForceMove(rep.ID, target.ID); err != nil {
		t.Fatal(err)
	}
	v2, ok := e.managerOf(rep).ReportDisk(rep, info, now.Add(20*time.Minute))
	if !ok {
		t.Fatal("model path lost")
	}
	if v2 >= v1 {
		t.Errorf("tempDB did not reset: %v >= %v", v2, v1)
	}
	if v2 > 1 {
		t.Errorf("fresh replica reports %v, want near zero", v2)
	}
}

func TestFrozenReturnsPrev(t *testing.T) {
	set := testModelSet()
	set.Frozen = true
	e := newEnv(t, set)
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	p := svc.Primary()
	e.managerOf(p).SeedLoad(p, info, fabric.MetricDiskGB, 700)
	for i := 1; i <= 5; i++ {
		v, ok := e.managerOf(p).ReportDisk(p, info, start.Add(time.Duration(i)*20*time.Minute))
		if !ok || v != 700 {
			t.Fatalf("frozen report %d = %v", i, v)
		}
	}
}

func TestMemoryColdStartAndWarmup(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("gp1", 1, 2, nil)
	info := gpInfo("gp1", start)
	rep := svc.Replicas[0]
	var v float64
	var ok bool
	for i := 1; i <= 20; i++ {
		v, ok = e.managerOf(rep).ReportMemory(rep, info, start.Add(time.Duration(i)*20*time.Minute))
		if !ok {
			t.Fatal("no memory model")
		}
	}
	if v < 6 || v > 10 {
		t.Errorf("warmed memory = %v, want ~8", v)
	}
	// BC has no memory model configured in this set.
	bc, _ := e.cluster.CreateService("bc9", 4, 2, nil)
	if _, ok := e.managerOf(bc.Primary()).ReportMemory(bc.Primary(), bcInfo("bc9", start), start); ok {
		t.Error("memory model applied to edition without one")
	}
}

func TestEvictAndMemEntries(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("gp1", 1, 2, nil)
	info := gpInfo("gp1", start)
	rep := svc.Replicas[0]
	m := e.managerOf(rep)
	m.ReportDisk(rep, info, start.Add(20*time.Minute))
	m.ReportMemory(rep, info, start.Add(20*time.Minute))
	if m.MemEntries() != 2 {
		t.Fatalf("mem entries = %d", m.MemEntries())
	}
	m.Evict(rep.ID, rep.Incarnation)
	if m.MemEntries() != 0 {
		t.Errorf("entries after evict = %d", m.MemEntries())
	}
}

func TestClearPersisted(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	p := svc.Primary()
	e.managerOf(p).SeedLoad(p, info, fabric.MetricDiskGB, 100)
	if len(e.cluster.Naming().Keys("toto/load/")) != 1 {
		t.Fatal("persisted load not written")
	}
	ClearPersisted(e.cluster.Naming(), "bc1")
	if len(e.cluster.Naming().Keys("toto/load/")) != 0 {
		t.Error("persisted load not cleared")
	}
}

func TestMaxDiskClamp(t *testing.T) {
	e := newEnv(t, testModelSet())
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	info.MaxDiskGB = 500.05
	p := svc.Primary()
	e.managerOf(p).SeedLoad(p, info, fabric.MetricDiskGB, 500)
	for i := 1; i <= 10; i++ {
		v, _ := e.managerOf(p).ReportDisk(p, info, start.Add(time.Duration(i)*20*time.Minute))
		if v > info.MaxDiskGB {
			t.Fatalf("reported %v above SLO max %v", v, info.MaxDiskGB)
		}
	}
}

func TestSecondaryMemoryBelowPrimary(t *testing.T) {
	set := testModelSet()
	set.Memory[slo.PremiumBC] = &models.MemoryModel{
		Target:          flatHourly(10, 0),
		WarmRate:        1, // jump straight to target
		ColdStartGB:     0,
		SecondaryFactor: 0.4,
		ReportInterval:  20 * time.Minute,
	}
	e := newEnv(t, set)
	svc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	info := bcInfo("bc1", start)
	now := start.Add(20 * time.Minute)

	pv, ok := e.managerOf(svc.Primary()).ReportMemory(svc.Primary(), info, now)
	if !ok {
		t.Fatal("no memory model")
	}
	var sv float64
	for _, r := range svc.Replicas {
		if r.Role == fabric.Secondary {
			sv, ok = e.managerOf(r).ReportMemory(r, info, now)
			if !ok {
				t.Fatal("no model for secondary")
			}
			break
		}
	}
	if sv >= pv {
		t.Errorf("secondary memory %v not below primary %v", sv, pv)
	}
	if sv < pv*0.3 || sv > pv*0.5 {
		t.Errorf("secondary/primary ratio = %v, want ~0.4", sv/pv)
	}
}

func TestCPUModelReporting(t *testing.T) {
	set := testModelSet()
	target := flatHourly(0.5, 0) // 50% of reserved cores, no noise
	set.CPU[slo.StandardGP] = &models.CPUModel{
		TargetFraction:  target,
		IdleFraction:    0,
		SecondaryFactor: 0.2,
		ReportInterval:  20 * time.Minute,
	}
	e := newEnv(t, set)
	svc, _ := e.cluster.CreateService("gp1", 1, 4, nil)
	info := gpInfo("gp1", start)
	rep := svc.Replicas[0]
	v, ok := e.managerOf(rep).ReportCPU(rep, info, 4, start.Add(20*time.Minute))
	if !ok {
		t.Fatal("no CPU model")
	}
	if v != 2 { // 50% of 4 reserved cores
		t.Errorf("CPU used = %v, want 2", v)
	}
	// No model for BC in this set.
	bc, _ := e.cluster.CreateService("bc1", 4, 2, nil)
	if _, ok := e.managerOf(bc.Primary()).ReportCPU(bc.Primary(), bcInfo("bc1", start), 2, start); ok {
		t.Error("CPU model applied to edition without one")
	}
}

func TestCPUModelIdleSubpopulation(t *testing.T) {
	set := testModelSet()
	set.CPU[slo.StandardGP] = &models.CPUModel{
		TargetFraction: flatHourly(0.5, 0),
		IdleFraction:   0.5,
		ReportInterval: 20 * time.Minute,
	}
	e := newEnv(t, set)
	idle, busy := 0, 0
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("gp-%02d", i)
		svc, err := e.cluster.CreateService(name, 1, 2, nil)
		if err != nil {
			break
		}
		rep := svc.Replicas[0]
		v, ok := e.managerOf(rep).ReportCPU(rep, gpInfo(name, start), 2, start.Add(20*time.Minute))
		if !ok {
			t.Fatal("no model")
		}
		if v == 0 {
			idle++
		} else {
			busy++
		}
	}
	if idle == 0 || busy == 0 {
		t.Errorf("idle=%d busy=%d: idle subpopulation not reproduced", idle, busy)
	}
}
