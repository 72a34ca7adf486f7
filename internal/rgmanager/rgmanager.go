// Package rgmanager implements the per-node resource-governance helper
// service of Azure SQL DB (paper §3.2) with Toto's model-injection hook
// built in (§3.3.1-3.3.2).
//
// One Manager runs on every cluster node. When a SQL replica needs to
// report its metric loads to the PLB it consults the co-located Manager;
// with Toto enabled, the Manager computes the value from declarative
// models instead of the replica's actual usage. Models arrive as XML
// through the Naming Service and are re-read every 15 minutes, so
// behaviour can be reconfigured mid-benchmark by overwriting one key. A
// refresh at an unchanged version copies and decodes nothing, and the
// Managers of one deployment share each decoded version
// (models.SetCache).
//
// Persisted metrics (local-store disk) round-trip the previously reported
// value through the Naming Service: only the primary replica executes the
// model and writes the new value back; secondaries just read and report
// it. On failover the newly promoted primary therefore continues from
// exactly the disk usage the old primary last reported — production
// behaviour for Premium/BC databases. Non-persisted metrics (remote-store
// tempDB disk, memory) live in the Manager's process memory, so a replica
// landing on a new node starts cold, which is also production behaviour.
package rgmanager

import (
	"fmt"
	"strconv"
	"time"

	"toto/internal/fabric"
	"toto/internal/models"
	"toto/internal/obs"
	"toto/internal/slo"
)

// DBInfo is the database metadata a Manager needs to evaluate models for
// one replica. The caller (Toto's orchestrator) owns the mapping from
// fabric services to database metadata.
type DBInfo struct {
	// Name is the database name (equals the fabric service name).
	Name string
	// Edition selects which per-edition model applies.
	Edition slo.Edition
	// Created is the database creation time (growth phases key off it).
	Created time.Time
	// MaxDiskGB caps reported disk at the SLO's maximum allowable size.
	MaxDiskGB float64
	// MaxMemoryGB caps reported memory at the SLO's DRAM allotment.
	MaxMemoryGB float64
}

// loadKey addresses one non-persisted metric value for one replica
// incarnation in the Manager's in-memory store. member is empty for
// singleton databases and carries the member database name for elastic
// pool members (whose per-member state lives under the pool's replica).
type loadKey struct {
	rep    fabric.ReplicaID
	inc    int
	metric fabric.MetricName
	member string
}

// Manager is the RgManager instance of one node.
type Manager struct {
	nodeID string
	naming *fabric.NamingService
	// nodeKey hashes this node's seed and setKey the loaded model set's
	// seed, each once; a report then hashes only its database name.
	nodeKey models.SeedKey
	setKey  models.SeedKey

	set     *models.ModelSet
	version int64
	decoded *models.SetCache

	mem map[loadKey]float64

	// Registry counters, shared by every node's Manager via the
	// registry's get-or-create semantics; nil (free no-ops) when the
	// observability layer is off.
	cRefreshes   *obs.Counter // rgmanager.model_refreshes
	cDiskReports *obs.Counter // rgmanager.disk_reports
	cMemReports  *obs.Counter // rgmanager.memory_reports
	cEvictions   *obs.Counter // rgmanager.evictions
}

// New returns the Manager for node nodeID reading models from naming and
// decoding them through decoded, a non-nil cache the deployment's other
// model readers share so each version is decoded once. nodeSeed is this
// node's unique random seed (§5.2: "a unique seed was provided to every
// node"); it drives sampling for non-persisted metrics, whose values
// reset on failover anyway. Persisted metrics sample from the model
// set's global seed so a newly promoted primary on another node
// continues the same sequence.
func New(nodeID string, naming *fabric.NamingService, decoded *models.SetCache, nodeSeed uint64) *Manager {
	return &Manager{
		nodeID:  nodeID,
		naming:  naming,
		decoded: decoded,
		nodeKey: models.NewSeedKey(nodeSeed),
		mem:     make(map[loadKey]float64),
	}
}

// SetObs attaches the observability layer's counters (nil disables at
// zero cost). All node Managers share the same registry handles.
func (m *Manager) SetObs(o *obs.Obs) {
	m.cRefreshes = o.Counter("rgmanager.model_refreshes")
	m.cDiskReports = o.Counter("rgmanager.disk_reports")
	m.cMemReports = o.Counter("rgmanager.memory_reports")
	m.cEvictions = o.Counter("rgmanager.evictions")
}

// Models returns the currently loaded model set (nil before the first
// successful Refresh).
func (m *Manager) Models() *models.ModelSet { return m.set }

// Refresh re-reads the model XML from the Naming Service; only a changed
// version is copied and decoded, so the common unchanged refresh costs
// one Naming Service read and nothing else. It is scheduled every 15
// minutes by the orchestrator. A missing key clears the models (normal
// operating behaviour resumes); a malformed blob keeps the previous
// models and returns an error.
func (m *Manager) Refresh() error {
	m.cRefreshes.Inc()
	data, version, ok := m.naming.GetIfChanged(models.NamingKey, m.version)
	if !ok {
		m.set = nil
		m.version = 0
		return nil
	}
	if version == m.version {
		return nil
	}
	set, err := m.decoded.Decode(version, data)
	if err != nil {
		return fmt.Errorf("rgmanager %s: %w", m.nodeID, err)
	}
	m.set = set
	m.setKey = models.NewSeedKey(set.Seed)
	m.version = version
	return nil
}

// loadNamingKey is the Naming Service key holding the persisted disk load
// of one database.
func loadNamingKey(db string) string { return "toto/load/" + db + "/diskGB" }

// persistedLoad reads the durable previously-reported disk value for db.
func (m *Manager) persistedLoad(db string) (float64, bool) {
	data, _, ok := m.naming.Get(loadNamingKey(db))
	if !ok {
		return 0, false
	}
	return parseLoad(data)
}

// persistLoad durably stores the reported disk value for db.
func (m *Manager) persistLoad(db string, v float64) {
	var buf [32]byte
	m.naming.Put(loadNamingKey(db), appendLoad(buf[:0], v))
}

// appendLoad appends the stored text form of a disk load: the shortest
// decimal that parses back to v, byte-identical to fmt's %g.
func appendLoad(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// parseLoad reads a disk load stored by appendLoad.
func parseLoad(data []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// ClearPersisted removes db's durable load entry (called when the
// database is dropped).
func ClearPersisted(naming *fabric.NamingService, db string) {
	naming.Delete(loadNamingKey(db))
}

// SeedLoad primes the previously-reported value for a replica's metric,
// used when bootstrapping an initial population with non-zero disk usage
// (§5.2: "Upon creation of each database in the initial population, the
// disk usage was initialized"). For persisted metrics it writes through
// to the Naming Service.
func (m *Manager) SeedLoad(rep *fabric.Replica, info DBInfo, metric fabric.MetricName, value float64) {
	persisted := false
	if m.set != nil {
		if dm, ok := m.set.Disk[info.Edition]; ok && metric == fabric.MetricDiskGB {
			persisted = dm.Persisted
		}
	} else if info.Edition.LocalStore() && metric == fabric.MetricDiskGB {
		persisted = true
	}
	if persisted {
		m.persistLoad(info.Name, value)
		return
	}
	m.mem[loadKey{rep: rep.ID, inc: rep.Incarnation, metric: metric}] = value
}

// ReportDisk computes the disk load the given replica should report to
// the PLB. ok is false when no model covers this database's disk metric,
// in which case the replica reports its actual usage (the normal,
// non-benchmark path, §3.3.1).
func (m *Manager) ReportDisk(rep *fabric.Replica, info DBInfo, now time.Time) (value float64, ok bool) {
	m.cDiskReports.Inc()
	if m.set == nil {
		return 0, false
	}
	dm, exists := m.set.Disk[info.Edition]
	if !exists {
		return 0, false
	}

	if dm.Persisted {
		prev, _ := m.persistedLoad(info.Name)
		if m.set.Frozen {
			return prev, true
		}
		if rep.Role == fabric.Secondary {
			// Secondaries report the durable value without executing the
			// model (§3.3.2): local-store secondaries hold a data copy
			// whose size tracks the primary's.
			return prev, true
		}
		next := dm.Next(models.EvalContext{
			Key:     m.setKey.DB(info.Name),
			Created: info.Created,
			Now:     now,
			Prev:    prev,
			MaxGB:   info.MaxDiskGB,
		})
		m.persistLoad(info.Name, next)
		return next, true
	}

	key := loadKey{rep: rep.ID, inc: rep.Incarnation, metric: fabric.MetricDiskGB}
	prev := m.mem[key] // zero for a fresh incarnation: tempDB was lost
	if m.set.Frozen {
		return prev, true
	}
	next := dm.Next(models.EvalContext{
		Key:     m.nodeKey.DB(info.Name),
		Created: info.Created,
		Now:     now,
		Prev:    prev,
		MaxGB:   info.MaxDiskGB,
	})
	m.mem[key] = next
	return next, true
}

// ReportPoolDisk computes the disk load an elastic pool's replica should
// report: the sum of every member database's modeled usage, capped at
// the pool SLO's storage quota. Each member is evaluated exactly like a
// standalone database of the pool's edition — persisted members keep
// their own durable entries in the Naming Service, non-persisted members
// keep per-member in-memory state under the pool replica's incarnation
// (so a pool failover resets the members' tempDB usage together, as one
// SQL instance would).
func (m *Manager) ReportPoolDisk(rep *fabric.Replica, pool DBInfo, members []DBInfo, now time.Time) (value float64, ok bool) {
	m.cDiskReports.Inc()
	if m.set == nil {
		return 0, false
	}
	dm, exists := m.set.Disk[pool.Edition]
	if !exists {
		return 0, false
	}
	total := 0.0
	for _, member := range members {
		if dm.Persisted {
			prev, _ := m.persistedLoad(member.Name)
			if m.set.Frozen {
				total += prev
				continue
			}
			if rep.Role == fabric.Secondary {
				total += prev
				continue
			}
			next := dm.Next(models.EvalContext{
				Key:     m.setKey.DB(member.Name),
				Created: member.Created,
				Now:     now,
				Prev:    prev,
				MaxGB:   member.MaxDiskGB,
			})
			m.persistLoad(member.Name, next)
			total += next
			continue
		}
		key := loadKey{rep: rep.ID, inc: rep.Incarnation, metric: fabric.MetricDiskGB, member: member.Name}
		prev := m.mem[key]
		if m.set.Frozen {
			total += prev
			continue
		}
		next := dm.Next(models.EvalContext{
			Key:     m.nodeKey.DB(member.Name),
			Created: member.Created,
			Now:     now,
			Prev:    prev,
			MaxGB:   member.MaxDiskGB,
		})
		m.mem[key] = next
		total += next
	}
	if pool.MaxDiskGB > 0 && total > pool.MaxDiskGB {
		total = pool.MaxDiskGB
	}
	return total, true
}

// SeedMemberLoad primes one pool member's previously-reported disk value.
func (m *Manager) SeedMemberLoad(rep *fabric.Replica, pool DBInfo, member DBInfo, value float64) {
	persisted := pool.Edition.LocalStore()
	if m.set != nil {
		if dm, ok := m.set.Disk[pool.Edition]; ok {
			persisted = dm.Persisted
		}
	}
	if persisted {
		m.persistLoad(member.Name, value)
		return
	}
	m.mem[loadKey{rep: rep.ID, inc: rep.Incarnation, metric: fabric.MetricDiskGB, member: member.Name}] = value
}

// ReportMemory computes the memory load the replica should report, with
// the same contract as ReportDisk. Memory is always non-persisted: a
// newly placed replica has a cold buffer pool (§3.3.2).
func (m *Manager) ReportMemory(rep *fabric.Replica, info DBInfo, now time.Time) (value float64, ok bool) {
	m.cMemReports.Inc()
	if m.set == nil {
		return 0, false
	}
	mm, exists := m.set.Memory[info.Edition]
	if !exists {
		return 0, false
	}
	key := loadKey{rep: rep.ID, inc: rep.Incarnation, metric: fabric.MetricMemoryGB}
	prev := m.mem[key]
	if m.set.Frozen {
		return prev, true
	}
	ctx := models.EvalContext{
		Key:     m.nodeKey.DB(info.Name),
		Created: info.Created,
		Now:     now,
		Prev:    prev,
		MaxGB:   info.MaxMemoryGB,
	}
	var next float64
	if rep.Role == fabric.Secondary {
		// Secondaries of local-store databases warm smaller buffer pools
		// than the query-serving primary (§3.3.2).
		next = mm.NextSecondary(ctx)
	} else {
		next = mm.Next(ctx)
	}
	m.mem[key] = next
	return next, true
}

// ReportCPU computes the observational CPU-usage metric (cores actually
// consumed) for a replica. info.MaxMemoryGB is unused; the replica's
// reserved cores are passed via reservedCores. ok is false when the
// edition has no CPU model.
func (m *Manager) ReportCPU(rep *fabric.Replica, info DBInfo, reservedCores float64, now time.Time) (value float64, ok bool) {
	if m.set == nil {
		return 0, false
	}
	cm, exists := m.set.CPU[info.Edition]
	if !exists {
		return 0, false
	}
	if m.set.Frozen {
		return 0, true
	}
	ctx := models.EvalContext{
		Key:     m.nodeKey.DB(info.Name),
		Created: info.Created,
		Now:     now,
		MaxGB:   reservedCores, // the model's core cap
	}
	if rep.Role == fabric.Secondary {
		return cm.NextSecondary(ctx), true
	}
	return cm.Next(ctx), true
}

// Evict drops all in-memory state for a replica incarnation (called when
// a replica leaves the node or its database is dropped), including any
// per-member pool entries. Forgetting to evict is safe for correctness —
// incarnations never repeat — but this keeps the store from growing
// unboundedly in long benchmarks.
func (m *Manager) Evict(rep fabric.ReplicaID, incarnation int) {
	m.cEvictions.Inc()
	for key := range m.mem {
		if key.rep == rep && key.inc == incarnation {
			delete(m.mem, key)
		}
	}
}

// MemEntries reports the size of the in-memory store (for tests and leak
// checks).
func (m *Manager) MemEntries() int { return len(m.mem) }
