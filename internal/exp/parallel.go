package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Every simulation is hermetic: a run builds its own sim.Engine with its own
// seeded RNG and touches no package-level mutable state, so independent
// jobs may execute concurrently without changing any result. This file is
// the worker pool; runSpecs (sweep.go) is how experiments use it. See
// DESIGN.md "Deterministic parallelism".

// simsRun counts completed simulations process-wide, for throughput
// reporting (effective simulations/sec in cmd/mpccbench).
var simsRun atomic.Uint64

// SimsRun returns the number of simulations completed so far.
func SimsRun() uint64 { return simsRun.Load() }

// countSim records one completed simulation.
func countSim() { simsRun.Add(1) }

// RunParallel executes job(0) … job(n-1), each exactly once, on a pool of
// the given number of workers — runtime.GOMAXPROCS(0) when workers ≤ 0; see
// runPool for the contract.
func RunParallel(n, workers int, job func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runPool(n, workers, job)
}

// runPool executes job(0) … job(n-1), each exactly once, on at most workers
// goroutines — the one worker pool of the package: sweeps run simulations
// on it (RunParallel) and a sharded simulation runs its engines on it
// (world.run). With workers ≤ 1 (or n ≤ 1) the jobs run inline in index
// order — byte-for-byte the sequential behavior. Otherwise min(workers, n)
// goroutines pull indices from a shared counter; jobs must be independent
// and must communicate results only through index-addressed slots (e.g.
// results[i]), never by appending to shared state. runPool returns when
// every job has finished. A panicking job propagates to the caller.
func runPool(n, workers int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
					// Drain remaining indices so sibling workers exit.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
