package main

// Micro-loops over the public mem entry points. The traced run cannot
// split the memory model out of interp.Run from outside, so these time
// Space.LoadCosted/StoreCosted on fixed hit and miss address streams,
// Pool.Get+Put, and NewSpace at the campaign geometry directly. Each
// loop also checks the cost the model charged, so a stream that stops
// hitting (or missing) is a failure rather than a silently different
// measurement.

import (
	"fmt"
	"time"

	"dpmr/internal/mem"
)

const (
	memBatches  = 15      // timed batches per loop; the median is reported
	memAccesses = 1 << 18 // accesses per batch
	lineBytes   = 64      // mem.DefaultCacheConfig line size
	hitLines    = 64      // distinct lines of the hit stream: one per set, far below capacity
	missBytes   = 1 << 20 // span of the miss stream: 32× the 32 KiB cache
)

func memLayers(rep *report, cfg mem.Config) error {
	s := mem.NewSpace(cfg)
	base, trap := s.Malloc(missBytes)
	if trap != nil {
		return fmt.Errorf("mem micro-loop: malloc: %v", trap)
	}
	hit := make([]uint64, hitLines)
	for i := range hit {
		hit[i] = base + uint64(i)*lineBytes
	}
	miss := make([]uint64, missBytes/lineBytes)
	for i := range miss {
		miss[i] = base + uint64(i)*lineBytes
	}

	load := func(addrs []uint64, want uint64) (float64, error) {
		return perOp(func(check bool) error {
			var bad uint64
			for i := 0; i < memAccesses; i++ {
				_, cost, trap := s.LoadCosted(addrs[i%len(addrs)], 8)
				if trap != nil {
					return trap
				}
				if cost != want {
					bad++
				}
			}
			if check && bad > 0 {
				return fmt.Errorf("%d of %d loads cost other than %d cycles", bad, memAccesses, want)
			}
			return nil
		}, memAccesses)
	}
	hitNS, err := load(hit, mem.CacheHitCost)
	if err != nil {
		return fmt.Errorf("mem hit stream: %w", err)
	}
	missNS, err := load(miss, mem.CacheMissCost)
	if err != nil {
		return fmt.Errorf("mem miss stream: %w", err)
	}
	storeNS, err := perOp(func(check bool) error {
		for i := 0; i < memAccesses; i++ {
			cost, trap := s.StoreCosted(hit[i%len(hit)], 8, uint64(i))
			if trap != nil {
				return trap
			}
			if check && cost != mem.CacheHitCost {
				return fmt.Errorf("store cost %d, want %d", cost, mem.CacheHitCost)
			}
		}
		return nil
	}, memAccesses)
	if err != nil {
		return fmt.Errorf("mem store stream: %w", err)
	}
	rep.set("mem.load_hit_ns", "ns", hitNS)
	rep.set("mem.load_miss_ns", "ns", missNS)
	rep.set("mem.store_ns", "ns", storeNS)

	// Pool reuse: Get a space, dirty a trial-sized heap footprint, Put it
	// back (Put resets it). Only Get and Put are timed.
	const poolReps = 40
	pool := mem.NewPool(cfg)
	pool.Put(pool.Get())
	var reuse []float64
	for i := 0; i < poolReps; i++ {
		t := time.Now()
		sp := pool.Get()
		d := time.Since(t)
		a, trap := sp.Malloc(64 << 10)
		if trap != nil {
			return fmt.Errorf("mem pool loop: malloc: %v", trap)
		}
		for off := uint64(0); off < 64<<10; off += lineBytes {
			if trap := sp.Store(a+off, 8, off); trap != nil {
				return fmt.Errorf("mem pool loop: store: %v", trap)
			}
		}
		t = time.Now()
		pool.Put(sp)
		d += time.Since(t)
		reuse = append(reuse, float64(d)/float64(time.Microsecond))
	}
	rep.set("mem.pool_reuse_us", "us", median(reuse))

	const newReps = 20
	var fresh []float64
	for i := 0; i < newReps; i++ {
		t := time.Now()
		sp := mem.NewSpace(cfg)
		fresh = append(fresh, float64(time.Since(t))/float64(time.Microsecond))
		if sp.StackPointer() == 0 {
			return fmt.Errorf("mem.NewSpace returned a space without a stack")
		}
	}
	rep.set("mem.newspace_us", "us", median(fresh))
	return nil
}

// perOp times memBatches runs of batch after one untimed warm-up run,
// which fills the cache model and so skips the cost check, and returns
// the median nanoseconds per operation.
func perOp(batch func(check bool) error, ops int) (float64, error) {
	if err := batch(false); err != nil {
		return 0, err
	}
	var ns []float64
	for i := 0; i < memBatches; i++ {
		t := time.Now()
		if err := batch(true); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t))/float64(ops))
	}
	return median(ns), nil
}
