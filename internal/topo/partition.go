package topo

import (
	"strconv"

	"mpcc/internal/sim"
)

// This file computes the space-partition of a topology for sharded
// execution (exp.Spec.Shards): which links may share a simulation engine.
//
// The repository's sharding unit is the *interaction component*: two links
// belong to the same component when some flow's subflow traverses both (or
// traverses one and a sibling subflow traverses the other — i.e. the
// connected components of the links ∪ flows bipartite graph). Everything
// inside a component — its links, paths, connections, probes — schedules
// on one engine and is bit-identical to a standalone single-engine run of
// just that component; components share nothing at all, so their engines
// never synchronize. This is the partition that preserves the determinism
// contract exactly: a transport connection reads its engine's RNG at event
// time, so splitting a connection (or two connections contending for one
// queue) across engines would change the RNG interleaving and break
// same-seed reproducibility.

// Partition is the grouping of a topology's links into engine shards.
type Partition struct {
	// Components holds the link names of each shard, links in the order
	// they appear in the topology's link list; components are ordered by
	// their earliest link. This ordering is part of the determinism
	// contract: shard i always gets seed sim.ShardSeed(seed, i).
	Components [][]string
	comp       map[string]int
}

// PartitionLinks groups links into interaction components given the
// effective flows, each a group of subflow paths (link-name sequences).
// All links of one flow land in one component — sibling subflows share a
// connection, its RNG stream, and its scheduler state, so they cannot be
// split. Links touched by no flow form singleton components. Unknown link
// names panic: they would mean a flow escaping the partition.
func PartitionLinks(links []string, flows [][][]string) *Partition {
	var paths [][]string
	for _, f := range flows {
		paths = append(paths, f...)
		if len(f) > 1 {
			// Chain the subflows' first links so the whole flow co-locates.
			var chain []string
			for _, sp := range f {
				if len(sp) > 0 {
					chain = append(chain, sp[0])
				}
			}
			paths = append(paths, chain)
		}
	}
	return partitionPaths(links, paths)
}

func partitionPaths(links []string, paths [][]string) *Partition {
	idx := make(map[string]int, len(links))
	parent := make([]int, len(links))
	for i, name := range links {
		if _, dup := idx[name]; dup {
			panic("topo: duplicate link " + name + " in partition")
		}
		idx[name] = i
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra // smallest index wins: keeps components ordered
		}
	}
	for _, path := range paths {
		var first = -1
		for _, name := range path {
			i, ok := idx[name]
			if !ok {
				panic("topo: path uses unknown link " + name)
			}
			if first < 0 {
				first = i
			} else {
				union(first, i)
			}
		}
	}
	p := &Partition{comp: make(map[string]int, len(links))}
	rootComp := map[int]int{}
	for i, name := range links {
		r := find(i)
		c, ok := rootComp[r]
		if !ok {
			c = len(p.Components)
			rootComp[r] = c
			p.Components = append(p.Components, nil)
		}
		p.Components[c] = append(p.Components[c], name)
		p.comp[name] = c
	}
	return p
}

// PartitionTopology partitions a canonical topology by its declared flows.
// Experiments that override the flow list (exp.Spec.Flows) must partition
// by the effective flows via PartitionLinks instead.
func PartitionTopology(t *Topology) *Partition {
	flows := make([][][]string, len(t.Flows))
	for i, f := range t.Flows {
		flows[i] = f.Paths
	}
	return PartitionLinks(t.Links, flows)
}

// ComponentOf returns the shard index of a link.
func (p *Partition) ComponentOf(link string) int {
	c, ok := p.comp[link]
	if !ok {
		panic("topo: unknown link " + link + " in partition")
	}
	return c
}

// Build instantiates the topology's links (paper defaults) across one
// engine per component, seeded sim.ShardSeed(seed, component). Links are
// added in the topology's declaration order — the same creation order as
// an unsharded Build — and the returned engines follow component order,
// engines[0] doubling as the net's default engine. With one component the
// result is bit-identical to t.Build(sim.NewEngine(seed)).
func (p *Partition) Build(t *Topology, seed int64) (*Net, []*sim.Engine) {
	engines := make([]*sim.Engine, len(p.Components))
	for c := range engines {
		engines[c] = sim.NewEngine(sim.ShardSeed(seed, c))
	}
	n := NewNet(engines[0])
	for _, name := range t.Links {
		n.AddLinkOn(engines[p.ComponentOf(name)], name, DefaultRate, DefaultDelay, DefaultBuffer)
	}
	return n, engines
}

// Clusters returns a topology of k disjoint Fig3c-style clusters — each a
// pair of parallel links carrying one two-subflow multipath connection and
// one single-path connection — the canonical ≥k-component workload for
// space-parallel scaling runs (every cluster is an independent shard).
func Clusters(k int) *Topology {
	if k < 1 {
		panic("topo: Clusters needs k >= 1")
	}
	t := &Topology{Name: "clusters"}
	for i := 0; i < k; i++ {
		l1, l2 := clusterLink(i, 1), clusterLink(i, 2)
		t.Links = append(t.Links, l1, l2)
		t.Flows = append(t.Flows,
			FlowDef{Name: clusterName("mp", i), Paths: [][]string{{l1}, {l2}}},
			FlowDef{Name: clusterName("sp", i), Paths: [][]string{{l2}}},
		)
	}
	return t
}

func clusterLink(i, j int) string {
	return "c" + strconv.Itoa(i) + "link" + strconv.Itoa(j)
}

func clusterName(kind string, i int) string {
	return kind + strconv.Itoa(i)
}
