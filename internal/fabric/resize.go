package fabric

import (
	"fmt"
	"time"
)

// ErrInsufficientCoresForResize is returned when a scale-up cannot fit on
// the cluster even after moving replicas.
var ErrInsufficientCoresForResize = fmt.Errorf("%w for resize", ErrInsufficientCores)

// ResizeOutcome reports what a ResizeService call did.
type ResizeOutcome struct {
	// OldCores and NewCores are the per-replica reservations.
	OldCores, NewCores float64
	// Moves is how many replicas had to fail over to nodes with room.
	Moves int
	// Latency models how long the scale operation took to complete: an
	// in-place reconfiguration is quick; every forced move adds its
	// replica-build time. §5.4 names "how quickly an individual database
	// can scale up" as an efficiency notion in its own right.
	Latency time.Duration
}

// inPlaceResizeLatency is the reconfiguration time of a resize that fits
// on the replicas' current nodes.
const inPlaceResizeLatency = 30 * time.Second

// ResizeService changes a service's per-replica core reservation — a
// customer SLO change. Scale-downs always apply in place. Scale-ups apply
// in place on nodes with room; replicas on full nodes are failed over to
// nodes that can host the new reservation. If any replica cannot be
// placed anywhere, the whole resize is rolled back and
// ErrInsufficientCoresForResize returned.
func (c *Cluster) ResizeService(name string, newCores float64) (ResizeOutcome, error) {
	svc, ok := c.services[name]
	if !ok || !svc.Alive() {
		return ResizeOutcome{}, fmt.Errorf("%w: %s", ErrNoSuchService, name)
	}
	if newCores <= 0 {
		return ResizeOutcome{}, fmt.Errorf("fabric: non-positive resize to %f cores", newCores)
	}
	out := ResizeOutcome{OldCores: svc.ReservedCoresPerReplica, NewCores: newCores, Latency: inPlaceResizeLatency}
	delta := newCores - svc.ReservedCoresPerReplica
	if delta == 0 {
		out.Latency = 0
		return out, nil
	}

	apply := func(r *Replica) {
		if r.Node != nil {
			r.Node.applyLoadDelta(MetricCores, delta)
		}
		r.Loads[MetricCores] = newCores
	}

	if delta < 0 {
		for _, r := range svc.Replicas {
			apply(r)
		}
		svc.ReservedCoresPerReplica = newCores
		return out, nil
	}

	// Scale-up: find replicas whose nodes lack room for the delta.
	var needMove []*Replica
	for _, r := range svc.Replicas {
		if r.Node == nil {
			continue
		}
		free := r.Node.Capacity[MetricCores]*c.cfg.Density - r.Node.Load(MetricCores)
		if free < delta {
			needMove = append(needMove, r)
		}
	}
	// Dry-run feasibility: every crowded replica needs a target with room
	// for the FULL new reservation plus its dynamic loads. Commit the new
	// reservation first so the PLB's target checks use the post-resize
	// demand, then roll back on failure.
	svc.ReservedCoresPerReplica = newCores
	// Every forced move below chains to this resize decision. The anchor
	// is only recorded when moves are actually needed, so in-place
	// resizes leave no causal residue.
	if len(needMove) > 0 {
		prevCause := c.BeginCause(CauseResize, c.Annotate(Annotation{
			Kind: "resize", Service: name, Value: newCores, Limit: out.OldCores,
		}))
		defer c.EndCause(prevCause)
	}
	var moved []*Replica
	for _, r := range needMove {
		apply(r) // target checks see the new core load
		target := c.plb.chooseTarget(r)
		if target == nil {
			// Roll back everything.
			svc.ReservedCoresPerReplica = out.OldCores
			rollback := -delta
			for _, rr := range svc.Replicas {
				if rr.Loads[MetricCores] == newCores {
					if rr.Node != nil {
						rr.Node.applyLoadDelta(MetricCores, rollback)
					}
					rr.Loads[MetricCores] = out.OldCores
				}
			}
			// Replicas already moved stay on their new nodes (the move
			// itself was valid); only the reservation change reverts.
			_ = moved
			return ResizeOutcome{OldCores: out.OldCores, NewCores: out.OldCores},
				fmt.Errorf("%w: %s to %.0f cores", ErrInsufficientCoresForResize, name, newCores)
		}
		buildGB := r.Loads[MetricDiskGB]
		c.moveReplica(r, target, MetricCores, EventFailover)
		// moveReplica reset the dynamic loads but kept the (new) core
		// reservation; account the move in the outcome's latency.
		moveLatency := inPlaceResizeLatency
		if svc.ReplicaCount > 1 {
			moveLatency += time.Duration(buildGB / buildRateGBPerSec * float64(time.Second))
		}
		if moveLatency > out.Latency {
			out.Latency = moveLatency
		}
		out.Moves++
		moved = append(moved, r)
	}
	// Replicas that fit in place get the new reservation too.
	for _, r := range svc.Replicas {
		if r.Loads[MetricCores] != newCores {
			apply(r)
		}
	}
	return out, nil
}

// ProvisioningLatency models how long creating this service took to
// become fully available (§5.4's second efficiency notion: "the amount of
// time it takes to provision a new database"): a base control-plane
// latency, plus the data-copy time to build local-store replicas when the
// database starts with seeded data.
func (c *Cluster) ProvisioningLatency(svc *Service) time.Duration {
	const base = 45 * time.Second
	if svc.ReplicaCount <= 1 {
		return base
	}
	// Replica builds run in parallel; the slowest (they are equal-sized)
	// gates availability of the full replica set.
	diskGB := 0.0
	for _, r := range svc.Replicas {
		if r.Loads[MetricDiskGB] > diskGB {
			diskGB = r.Loads[MetricDiskGB]
		}
	}
	return base + time.Duration(diskGB/buildRateGBPerSec*float64(time.Second))
}
