package fabric

import (
	"math"
	"slices"
	"strings"
	"time"

	"toto/internal/obs"
	"toto/internal/rng"
)

// plb is the Placement and Load Balancer. It decides where new replicas
// go (simulated annealing over a balance cost function, as Service Fabric
// does, §5.2: "the PLB in Service Fabric uses the Simulated Annealing
// algorithm to decide where to place replicas") and fixes node capacity
// violations by moving replicas off overloaded nodes (failovers).
//
// The PLB is the simulation's hottest path: every placement runs up to
// saIterations annealing steps and every scan walks all nodes × metrics.
// All load/capacity state is therefore array-backed (see LoadVector) and
// the decision loops below reuse scratch buffers owned by this struct,
// so steady-state placements and scans allocate nothing.
type plb struct {
	cluster *Cluster
	cfg     Config
	rnd     *rng.Source

	// caps holds each node's density-scaled enforced capacities,
	// indexed by Node.idx — one multiply per node at construction
	// instead of one per capacity() call.
	caps []LoadVector

	// Scratch buffers reused across calls. The PLB runs strictly
	// single-threaded on the simulation clock, and no caller retains
	// these slices beyond the call that produced them.
	feasible []*Node
	assign   []*Node
	best     []*Node
	costMemo []float64 // per-node assignment cost, indexed by Node.idx
	victims  []*Replica
	targets  []*Node

	// Fault-domain scratch, used only while a topology is configured
	// (Config.FaultDomains > 0): fdUtil holds each domain's aggregate
	// core utilization for the domain-spread cost term (refreshed by
	// refreshDomainUtil at the top of search/chooseTarget; loads cannot
	// change within either call, so the memoized node costs stay valid),
	// fdCap its aggregate capacity, fdUsed the per-search "domain already
	// assigned" set. All stay nil on topology-free clusters, so the
	// default hot path neither allocates nor branches into domain logic.
	fdUtil []float64
	fdCap  []float64
	fdUsed []bool
}

func newPLB(c *Cluster, cfg Config) *plb {
	p := &plb{cluster: c, cfg: cfg, rnd: rng.New(cfg.PLBSeed)}
	p.caps = make([]LoadVector, len(c.nodes))
	for _, n := range c.nodes {
		v := n.Capacity
		v[MetricCores] *= cfg.Density
		p.caps[n.idx] = v
	}
	return p
}

// capacity returns node n's enforced capacity for metric m: core capacity
// is scaled by the density factor, disk and memory are not (§5: density
// tunes core reservations against logical capacity; disk limits stay
// fixed, which is exactly why high density converts disk growth into
// failovers).
func (p *plb) capacity(n *Node, m MetricName) float64 {
	return p.caps[n.idx][m]
}

// freeCores returns the unreserved core capacity of node n at the current
// density.
func (p *plb) freeCores(n *Node) float64 {
	return p.capacity(n, MetricCores) - n.Load(MetricCores)
}

// nodeCost scores node n's load state given a hypothetical extra load.
// The cost is the sum over metrics of squared utilization, which pushes
// the annealer toward balanced, under-capacity assignments; utilization
// above 1 is additionally penalized steeply so violations dominate.
func (p *plb) nodeCost(n *Node, extra *LoadVector) float64 {
	caps := &p.caps[n.idx]
	cost := 0.0
	for m := MetricCores; m < metricEnforcedEnd; m++ {
		cap := caps[m]
		if cap <= 0 {
			continue
		}
		u := (n.Load(m) + extra[m]) / cap
		cost += u * u
		if u > 1 {
			over := u - 1
			cost += 100 * over * over
		}
	}
	// Domain-spread term: nodes in crowded fault domains cost more, so
	// the annealer and chooseTarget drift load toward emptier domains —
	// a correlated outage then takes out less of any one replica set's
	// neighborhood. fdUtil is only ever non-empty on topology-enabled
	// clusters, keeping the default cost function bit-identical.
	if len(p.fdUtil) > 0 {
		u := p.fdUtil[n.FaultDomain]
		cost += domainSpreadWeight * u * u
	}
	return cost
}

// refreshDomainUtil recomputes each fault domain's aggregate core
// utilization (domain load over domain density-scaled capacity). No-op
// unless a topology is configured.
func (p *plb) refreshDomainUtil() {
	fds := p.cfg.FaultDomains
	if fds <= 0 {
		return
	}
	if cap(p.fdUtil) < fds {
		p.fdUtil = make([]float64, fds)
		p.fdCap = make([]float64, fds)
	}
	p.fdUtil = p.fdUtil[:fds]
	p.fdCap = p.fdCap[:fds]
	for i := range p.fdUtil {
		p.fdUtil[i], p.fdCap[i] = 0, 0
	}
	for _, n := range p.cluster.nodes {
		p.fdUtil[n.FaultDomain] += n.Load(MetricCores)
		p.fdCap[n.FaultDomain] += p.caps[n.idx][MetricCores]
	}
	for i := range p.fdUtil {
		if p.fdCap[i] > 0 {
			p.fdUtil[i] /= p.fdCap[i]
		}
	}
}

// fdUsedScratch returns the cleared per-domain "already assigned" set.
func (p *plb) fdUsedScratch() []bool {
	fds := p.cfg.FaultDomains
	if cap(p.fdUsed) < fds {
		p.fdUsed = make([]bool, fds)
	}
	p.fdUsed = p.fdUsed[:fds]
	for i := range p.fdUsed {
		p.fdUsed[i] = false
	}
	return p.fdUsed
}

// fdConflict reports whether putting replica r of svc on node n would
// place two of the service's replicas into one fault domain while the
// spread constraint binds. Like node anti-affinity this is a hard rule:
// callers must never fall back to a conflicting node.
func (p *plb) fdConflict(n *Node, svc *Service, r *Replica) bool {
	if !p.cluster.domainSpreadRequired(svc) {
		return false
	}
	for _, other := range svc.Replicas {
		if other != r && other.Node != nil && other.Node != n && other.Node.FaultDomain == n.FaultDomain {
			return true
		}
	}
	return false
}

// place chooses a node for each replica of svc. It returns the chosen
// nodes (index-aligned with svc.Replicas) or ErrInsufficientCores when no
// feasible assignment exists. Nothing is attached; the caller commits.
// The returned slice is PLB-owned scratch, valid until the next PLB call.
func (p *plb) place(svc *Service) ([]*Node, error) {
	sp := p.cluster.obs.Span("plb.place",
		obs.Str("service", svc.Name),
		obs.Int("replicas", svc.ReplicaCount),
		obs.Float("cores_per_replica", svc.ReservedCoresPerReplica),
	)
	p.cluster.metrics.placements.Inc()
	nodes, feasible, iters, err := p.search(svc)
	p.cluster.metrics.annealIters.Add(int64(iters))
	if err != nil {
		p.cluster.metrics.placementFailed.Inc()
	}
	sp.End(
		obs.Int("feasible_nodes", feasible),
		obs.Int("sa_iterations", iters),
		obs.Bool("ok", err == nil),
	)
	return nodes, err
}

// search is place's decision procedure, returning the chosen nodes plus
// the feasible-candidate count and annealing iterations for the span.
//
// Node loads cannot change while the search runs, so the cost of hosting
// one more replica of svc is a constant per node. search memoizes that
// constant once (costMemo) and the annealing loop then works entirely on
// memoized values — each iteration is a handful of array reads and adds
// instead of a full O(replicas × metrics) assignment-cost recomputation.
// The left-to-right summation over the assignment is kept so the
// accepted/rejected decision stream is bit-identical to the historical
// full recomputation (same addends, same order).
func (p *plb) search(svc *Service) (chosen []*Node, feasibleCount, iterations int, err error) {
	need := svc.ReservedCoresPerReplica
	nodes := p.cluster.nodes

	// Feasibility first: count up nodes with enough free cores. Replicas
	// of one service must land on distinct nodes; drained and quarantined
	// nodes accept nothing.
	now := p.cluster.clock.Now()
	feasible := p.feasible[:0]
	for _, n := range nodes {
		if n.Up() && !n.Quarantined(now) && p.freeCores(n) >= need {
			feasible = append(feasible, n)
		}
	}
	p.feasible = feasible
	if len(feasible) < svc.ReplicaCount {
		return nil, len(feasible), 0, ErrInsufficientCores
	}

	// Greedy seed: most free cores first, breaking ties by fewest
	// replicas then node ID for determinism.
	slices.SortFunc(feasible, func(a, b *Node) int {
		fa, fb := p.freeCores(a), p.freeCores(b)
		if fa != fb {
			if fa > fb {
				return -1
			}
			return 1
		}
		if a.ReplicaCount() != b.ReplicaCount() {
			return a.ReplicaCount() - b.ReplicaCount()
		}
		return strings.Compare(a.ID, b.ID)
	})
	// Fault-domain anti-affinity: with a configured topology wide enough
	// to give every replica its own domain, domain distinctness is a hard
	// constraint exactly like node distinctness — the greedy seed skips
	// already-used domains and placement fails outright if no
	// domain-distinct assignment exists.
	spread := p.cluster.domainSpreadRequired(svc)
	var assign []*Node
	if spread {
		assign = p.assign[:0]
		used := p.fdUsedScratch()
		for _, n := range feasible {
			if used[n.FaultDomain] {
				continue
			}
			used[n.FaultDomain] = true
			assign = append(assign, n)
			if len(assign) == svc.ReplicaCount {
				break
			}
		}
		p.assign = assign
		if len(assign) < svc.ReplicaCount {
			return nil, len(feasible), 0, ErrInsufficientCores
		}
	} else {
		assign = append(p.assign[:0], feasible[:svc.ReplicaCount]...)
		p.assign = assign
	}

	if p.cfg.GreedyPlacement || len(feasible) == svc.ReplicaCount {
		return assign, len(feasible), 0, nil
	}

	// Simulated annealing: perturb one replica's node at a time. The
	// cost sees the replica's known initial loads, not just its core
	// reservation.
	extra := LoadVector{MetricCores: need}
	for m := MetricDiskGB; m < metricEnforcedEnd; m++ {
		if v := svc.Replicas[0].Loads[m]; v > 0 {
			extra[m] = v
		}
	}
	// Memoize the cost of adding the replica to each feasible node.
	p.refreshDomainUtil()
	if cap(p.costMemo) < len(nodes) {
		p.costMemo = make([]float64, len(nodes))
	}
	costMemo := p.costMemo[:len(nodes)]
	for _, n := range feasible {
		costMemo[n.idx] = p.nodeCost(n, &extra)
	}
	assignmentCost := func(a []*Node) float64 {
		cost := 0.0
		for _, n := range a {
			cost += costMemo[n.idx]
		}
		return cost
	}

	curCost := assignmentCost(assign)
	best := append(p.best[:0], assign...)
	p.best = best
	bestCost := curCost
	temp := saInitialTemp
	for it := 0; it < saIterations; it++ {
		iterations++
		ri := p.rnd.Intn(len(assign))
		cand := feasible[p.rnd.Intn(len(feasible))]
		if cand == assign[ri] || assignmentUses(assign, cand, ri) ||
			(spread && assignmentUsesFD(assign, cand.FaultDomain, ri)) {
			temp *= saCooling
			continue
		}
		old := assign[ri]
		assign[ri] = cand
		newCost := assignmentCost(assign)
		delta := newCost - curCost
		if delta <= 0 || p.rnd.Float64() < math.Exp(-delta/math.Max(temp, 1e-9)) {
			curCost = newCost
			if curCost < bestCost {
				bestCost = curCost
				copy(best, assign)
			}
		} else {
			assign[ri] = old
		}
		temp *= saCooling
	}
	return best, len(feasible), iterations, nil
}

// assignmentUses reports whether node n is assigned to a replica other
// than the one at index except.
func assignmentUses(a []*Node, n *Node, except int) bool {
	for i, an := range a {
		if i != except && an == n {
			return true
		}
	}
	return false
}

// assignmentUsesFD reports whether fault domain fd is already used by a
// replica other than the one at index except.
func assignmentUsesFD(a []*Node, fd int, except int) bool {
	for i, an := range a {
		if i != except && an.FaultDomain == fd {
			return true
		}
	}
	return false
}

// violationFixOrder is the metric order of each scan's violation pass:
// disk and memory first (the violations the paper's workload produces;
// core violations can only appear if density was lowered mid-run).
var violationFixOrder = [...]MetricName{MetricDiskGB, MetricMemoryGB, MetricCores}

// scan is the periodic PLB pass: account resource-wait degradation on
// nodes found over capacity, fix the violations, then optionally perform
// balancing moves.
func (p *plb) scan(now time.Time) {
	sp := p.cluster.obs.Span("plb.scan")
	p.accrueDegradation()
	// Gray-failure detection piggybacks on the scan cadence: one nil
	// check on detection-free clusters (see slownode.go).
	if d := p.cluster.slowDet; d != nil {
		d.check(now)
	}
	// Degraded mode caps the violation moves one scan may make, so a
	// correlated failure cannot trigger a failover storm that itself
	// overloads the surviving nodes. Unserved violations wait for the
	// next scan.
	budget := -1 // unlimited
	if p.cluster.degraded && p.cfg.DegradedMaxMovesPerScan > 0 {
		budget = p.cfg.DegradedMaxMovesPerScan
	}
	moves := 0
	for _, m := range violationFixOrder {
		rem := -1
		if budget >= 0 {
			rem = budget - moves
		}
		moves += p.fixViolations(m, now, rem)
	}
	if p.cfg.BalancingEnabled {
		p.balance(now)
	}
	p.cluster.metrics.violationMoves.Add(int64(moves))
	sp.End(obs.Int("violation_moves", moves))
}

// accrueDegradation adds resource-wait unavailability to every database
// whose primary replica sits on a node that is over logical capacity in
// any metric: until the violation is fixed, the node cannot dispatch all
// the resources its databases have reserved (§1, §5.1).
func (p *plb) accrueDegradation() {
	if p.cfg.DegradationFactor <= 0 {
		return
	}
	degraded := time.Duration(float64(scanInterval) * p.cfg.DegradationFactor)
	for _, n := range p.cluster.nodes {
		caps := &p.caps[n.idx]
		over := false
		for m := MetricCores; m < metricEnforcedEnd; m++ {
			if n.Load(m) > caps[m] {
				over = true
				break
			}
		}
		if !over {
			continue
		}
		for _, r := range n.replicas {
			if r.Role == Primary {
				r.service.Downtime += degraded
			}
		}
	}
}

// fixViolations moves replicas off nodes whose load for metric m exceeds
// capacity, until the node is under capacity or the per-violation move
// budget is spent, returning the number of moves made. Drained nodes are
// skipped: their replicas already left, and any stranded ones have
// nowhere better to go. scanBudget (< 0 = unlimited) is the degraded-mode
// cap on moves remaining for the whole scan.
func (p *plb) fixViolations(m MetricName, now time.Time, scanBudget int) int {
	total := 0
	// Stable node order keeps runs reproducible given a fixed PLB seed.
	for _, n := range p.cluster.nodes {
		if !n.Up() || n.Load(m) <= p.capacity(n, m) {
			continue
		}
		if scanBudget >= 0 && total >= scanBudget {
			// Storm throttle: violations remain but the scan's move budget
			// is spent; they will be retried next scan.
			p.cluster.metrics.throttledMoves.Inc()
			break
		}
		if p.cluster.degraded && now.Sub(n.lastReport) > loadStalenessTimeout {
			// The apparent violation is built on loads nobody has confirmed
			// within the staleness timeout — under faults, moving replicas
			// on ancient data does more harm than waiting for a report.
			p.cluster.metrics.staleSkips.Inc()
			if log := p.cluster.obs.Log(); log.Enabled(obs.LevelWarn) {
				log.Warnf("plb: skipping violation on %s (%s): load reports stale", n.ID, m)
			}
			continue
		}
		// The span opens only once a violation exists, so quiet scans add
		// nothing to the trace.
		sp := p.cluster.obs.Span("plb.fix_violations",
			obs.Str("node", n.ID),
			obs.Str("metric", m.String()),
			obs.Float("load", n.Load(m)),
			obs.Float("capacity", p.capacity(n, m)),
		)
		// Anchor the violation in the causal journal, chained to the load
		// report that pushed the node over capacity (0 when the crossing
		// came from placement or seeded loads rather than a report), and
		// make it the ambient cause of every move that fixes it.
		vseq := p.cluster.Annotate(Annotation{
			Kind:     "violation",
			CauseSeq: n.overSince[m],
			Node:     n.ID,
			Metric:   m,
			Value:    n.Load(m),
			Limit:    p.capacity(n, m),
		})
		prevCause := p.cluster.BeginCause(CauseViolation, vseq)
		moves := 0
		for n.Load(m) > p.capacity(n, m) && moves < p.cfg.MaxMovesPerViolation &&
			(scanBudget < 0 || total+moves < scanBudget) {
			victim := p.chooseVictim(n, m)
			if victim == nil {
				break
			}
			target := p.chooseTarget(victim)
			if target == nil {
				break // cluster-wide pressure: no feasible target
			}
			p.cluster.moveReplica(victim, target, m, EventFailover)
			moves++
		}
		p.cluster.EndCause(prevCause)
		if moves == 0 {
			// The Enabled guard keeps the scan allocation-free when logging
			// is off: building the Warnf varargs would box n.ID per call.
			if log := p.cluster.obs.Log(); log.Enabled(obs.LevelWarn) {
				log.Warnf("plb: violation on %s (%s) unresolved: no victim/target", n.ID, m)
			}
		}
		sp.End(obs.Int("moves", moves), obs.Bool("cleared", n.Load(m) <= p.capacity(n, m)))
		total += moves
	}
	return total
}

// sortedNodeReplicas fills the PLB's victim scratch with node n's
// replicas ordered by (disk load, replica ID) — the deterministic
// cheapest-to-move order shared by chooseVictim and balance. The replica
// sort key is precomputed at replica creation, so the comparator does no
// formatting and the whole collect+sort allocates nothing.
func (p *plb) sortedNodeReplicas(n *Node) []*Replica {
	replicas := p.victims[:0]
	for _, r := range n.replicas {
		replicas = append(replicas, r)
	}
	p.victims = replicas
	slices.SortFunc(replicas, func(a, b *Replica) int {
		if a.Loads[MetricDiskGB] != b.Loads[MetricDiskGB] {
			if a.Loads[MetricDiskGB] < b.Loads[MetricDiskGB] {
				return -1
			}
			return 1
		}
		return strings.Compare(a.sortKey, b.sortKey)
	})
	return replicas
}

// chooseVictim picks the replica to move off overloaded node n. The
// deterministic heuristic prefers the cheapest replica (smallest disk
// load — moving a Premium/BC replica means physically copying its data,
// §3.1) whose removal clears the violation; if no single replica
// suffices, it takes the one with the largest load for the violated
// metric. The annealer's randomness occasionally overrides the heuristic,
// reproducing the paper's observation that "poor placement decisions can
// potentially disproportionately punish the number of failed-over cores"
// (§5.3.3).
func (p *plb) chooseVictim(n *Node, m MetricName) *Replica {
	replicas := p.sortedNodeReplicas(n)
	if len(replicas) == 0 {
		return nil
	}
	over := n.Load(m) - p.capacity(n, m)

	// With small probability pick uniformly at random (simulated
	// annealing exploration applied to violation fixes).
	if p.rnd.Float64() < 0.10 {
		return replicas[p.rnd.Intn(len(replicas))]
	}
	// Domain-aware victim choice: under a configured topology the
	// fault-domain constraint can make the cheapest clearing replica
	// immovable (every legal domain already hosts a sibling), which would
	// waste the violation's move budget on a victim with no target.
	// Prefer the cheapest clearing replica that has at least one legal
	// landing node; fall through to the plain heuristic when none does.
	if p.cfg.topologyEnabled() {
		for _, r := range replicas {
			if r.Loads[m] >= over && p.victimMovable(r) {
				return r
			}
		}
	}
	for _, r := range replicas {
		if r.Loads[m] >= over {
			return r
		}
	}
	// No single replica clears it; move the biggest contributor.
	best := replicas[0]
	for _, r := range replicas[1:] {
		if r.Loads[m] > best.Loads[m] {
			best = r
		}
	}
	return best
}

// victimMovable reports whether at least one node could legally accept
// replica r under the placement rules, ignoring capacity: up, out of
// quarantine, no sibling aboard, and in a fault domain the anti-affinity
// constraint allows.
func (p *plb) victimMovable(r *Replica) bool {
	now := p.cluster.clock.Now()
	for _, n := range p.cluster.nodes {
		if n == r.Node || !n.Up() || n.Quarantined(now) {
			continue
		}
		if p.hostsServiceReplica(n, r.service, r) || p.fdConflict(n, r.service, r) {
			continue
		}
		return true
	}
	return false
}

// fitsOn reports whether adding extra to node n stays within every
// enforced capacity.
func (p *plb) fitsOn(n *Node, extra *LoadVector) bool {
	caps := &p.caps[n.idx]
	for m := MetricCores; m < metricEnforcedEnd; m++ {
		if n.Load(m)+extra[m] > caps[m] {
			return false
		}
	}
	return true
}

// chooseTarget picks the node to receive replica r: feasible on cores and
// on the replica's current dynamic loads, not already hosting a replica
// of the same service, minimizing post-move cost (with annealing noise).
func (p *plb) chooseTarget(r *Replica) *Node {
	svc := r.service
	p.refreshDomainUtil()
	extra := LoadVector{
		MetricCores:    svc.ReservedCoresPerReplica,
		MetricDiskGB:   r.Loads[MetricDiskGB],
		MetricMemoryGB: r.Loads[MetricMemoryGB],
	}
	now := p.cluster.clock.Now()
	candidates := p.targets[:0]
	for _, n := range p.cluster.nodes {
		if n == r.Node || !n.Up() || n.Quarantined(now) {
			continue
		}
		// The fault-domain constraint is as hard as node anti-affinity:
		// no fallback onto a conflicting domain — a replica with no
		// conflict-free target strands, same as under cluster-wide
		// capacity pressure.
		if p.hostsServiceReplica(n, svc, r) || p.fdConflict(n, svc, r) {
			continue
		}
		if p.fitsOn(n, &extra) {
			candidates = append(candidates, n)
		}
	}
	p.targets = candidates
	if len(candidates) == 0 {
		return nil
	}
	if p.rnd.Float64() < 0.10 {
		return candidates[p.rnd.Intn(len(candidates))]
	}
	best := candidates[0]
	bestCost := p.nodeCost(best, &extra)
	for _, n := range candidates[1:] {
		if c := p.nodeCost(n, &extra); c < bestCost {
			best, bestCost = n, c
		}
	}
	return best
}

// hostsServiceReplica reports whether node n hosts a replica of svc other
// than r itself.
func (p *plb) hostsServiceReplica(n *Node, svc *Service, r *Replica) bool {
	for _, other := range svc.Replicas {
		if other != r && other.Node == n {
			return true
		}
	}
	return false
}

// balance performs at most one proactive move per scan when the disk
// utilization spread between the most- and least-loaded nodes exceeds the
// configured threshold.
func (p *plb) balance(now time.Time) {
	var hi, lo *Node
	var hiU, loU float64
	for _, n := range p.cluster.nodes {
		cap := p.caps[n.idx][MetricDiskGB]
		if cap <= 0 {
			continue
		}
		u := n.Load(MetricDiskGB) / cap
		if hi == nil || u > hiU {
			hi, hiU = n, u
		}
		// Quarantined nodes cannot receive the balancing move. (Down nodes
		// are deliberately NOT excluded here: the historical golden runs
		// allow a drained node to be the balancing target, and changing
		// that would alter every recorded event stream. Quarantine only
		// exists under chaos, where no golden stream is at stake.)
		if n.Quarantined(now) {
			continue
		}
		if lo == nil || u < loU {
			lo, loU = n, u
		}
	}
	if hi == nil || lo == nil || hi == lo || hiU-loU < p.cfg.BalanceSpread {
		return
	}
	sp := p.cluster.obs.Span("plb.balance",
		obs.Str("from", hi.ID),
		obs.Str("to", lo.ID),
		obs.Float("spread", hiU-loU),
	)
	moved := false
	defer func() { sp.End(obs.Bool("moved", moved)) }()
	// Move the smallest replica that narrows the gap, if feasible.
	for _, r := range p.sortedNodeReplicas(hi) {
		if r.Loads[MetricDiskGB] <= 0 {
			continue
		}
		if p.hostsServiceReplica(lo, r.service, r) || p.fdConflict(lo, r.service, r) {
			continue
		}
		extra := LoadVector{
			MetricCores:    r.service.ReservedCoresPerReplica,
			MetricDiskGB:   r.Loads[MetricDiskGB],
			MetricMemoryGB: r.Loads[MetricMemoryGB],
		}
		if p.fitsOn(lo, &extra) {
			prevCause := p.cluster.BeginCause(CauseBalance, p.cluster.Annotate(Annotation{
				Kind:  "balance",
				Node:  hi.ID,
				Value: hiU,
				Limit: loU,
			}))
			p.cluster.moveReplica(r, lo, MetricDiskGB, EventBalanceMove)
			p.cluster.EndCause(prevCause)
			moved = true
			return
		}
	}
}
