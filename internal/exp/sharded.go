package exp

import "mpcc/internal/obs"

// Space-parallel execution (Spec.Shards): the topology is partitioned into
// interaction components — the connected components of the links∪flows
// graph over the run's *effective* flows (topo.PartitionLinks) — and each
// component gets its own engine, seeded sim.ShardSeed(Seed, component). A
// component contains every link its connections can touch, so components
// share no state whatsoever and each engine simply runs to the horizon;
// the shard count only sets how many workers of the pool (runPool) advance
// engines concurrently. Spec.Shards states the determinism contract and the
// world (world.go) builds and runs the engines; this file holds the shard
// count's resolution and the probe record-and-replay a multi-engine world
// needs.

// shardWorkers resolves the spec's effective shard worker count; 0 means
// unsharded, the whole topology on one engine. Sharded execution needs a
// positive horizon.
func (s *Spec) shardWorkers() int {
	if s.Churn != nil {
		// Churn sessions attach mid-run; the static partition sharding is
		// built on cannot see them, so the run always uses one engine (and
		// is thereby trivially identical for any shard count).
		return 0
	}
	if s.Shards < 1 || s.Duration <= 0 {
		return 0
	}
	return s.Shards
}

// eventRecorder buffers one component's probe events in emission order. It
// is the only sink of its component-private bus, so only the worker
// advancing that component's engine touches it; the pool's barrier
// publishes it back. The bus carries no registry: the user bus's registry
// folds the events during the replay, in merged order, as a live run would.
// Only the run bus takes part in the replay; a custom per-flow Attach.Probes
// bus is delivered live and must not be shared across components.
type eventRecorder struct {
	bus *obs.Bus
	evs []obs.Event
}

func (r *eventRecorder) Emit(e obs.Event) { r.evs = append(r.evs, e) }

// replayMerged k-way merges the per-component event streams on
// (At, component) — ties resolve to the lower component, FIFO within one —
// and replays them into the user bus: a canonical stream, independent of
// the shard count. Per-component streams are emitted in engine-time order
// (the utility-event exemption aside), so the merged stream has the same
// monotonicity the live single-engine stream has.
func replayMerged(bus *obs.Bus, recs []*eventRecorder) {
	pos := make([]int, len(recs))
	for {
		best := -1
		for c, r := range recs {
			if pos[c] >= len(r.evs) {
				continue
			}
			if best < 0 || r.evs[pos[c]].At < recs[best].evs[pos[best]].At {
				best = c
			}
		}
		if best < 0 {
			return
		}
		bus.Emit(recs[best].evs[pos[best]])
		pos[best]++
	}
}
