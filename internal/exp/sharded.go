package exp

// Space-parallel execution (Spec.Shards): the topology is partitioned into
// interaction components — the connected components of the links∪flows
// graph over the run's *effective* flows (topo.PartitionLinks) — and each
// component gets its own engine, seeded sim.ShardSeed(Seed, component). A
// component contains every link its connections can touch, so components
// share no state whatsoever: unprobed, the worker pool (runPool) runs each
// engine to the horizon; probed, world.step steps them in time order on
// one goroutine. Spec.Shards states the determinism contract and the world
// (world.go) builds and runs the engines; this file resolves the shard
// count.

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
