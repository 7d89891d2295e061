package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's wall clock, CPU
// time, cumulative heap allocation and GC CPU.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	totalCPU float64
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageMetrics))
	for i, n := range usageMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// window is what the process spent between two readings.
type window struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	// gcShare is the runtime's estimate of the GC's share of CPU time.
	gcShare float64
}

func (u usage) until(v usage) window {
	w := window{wall: v.wall.Sub(u.wall), cpu: v.cpu - u.cpu, alloc: v.alloc - u.alloc}
	if d := v.totalCPU - u.totalCPU; d > 0 {
		w.gcShare = (v.gcCPU - u.gcCPU) / d
	}
	return w
}

// timeSetups runs a block of reps set-ups in a row, each timing itself,
// and records all but the first quarter: those warm the caches the
// previous pass evicted, and a set-up takes from microseconds to a few
// milliseconds, so a cold start would otherwise swing the median. The
// block starts after a collection, so no set-up runs inside a GC cycle
// the previous pass left behind.
func (s *iterStats) timeSetups(reps int, setup func() (time.Duration, error)) error {
	runtime.GC()
	for k := 0; k < reps; k++ {
		d, err := setup()
		if err != nil {
			return err
		}
		if k >= reps/4 {
			s.setups = append(s.setups, d.Seconds())
		}
	}
	return nil
}

// heapSampler records the largest live-heap reading seen while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// iterStats collects per-iteration throughput figures of a run and
// reports their medians, so one slow iteration (a neighbour's burst on a
// shared machine) does not move the result.
type iterStats struct {
	setups []float64 // seconds per set-up
	tps    []float64
	cpu    []float64 // ms per trial
	alloc  []float64 // KiB per trial
	lat    []time.Duration
}

func (s *iterStats) add(w window, trials int) {
	if trials == 0 {
		return
	}
	s.tps = append(s.tps, float64(trials)/w.wall.Seconds())
	fmt.Printf("iteration %d: %d trials in %.3fs, %.2f cpu-s, %.1f trials/s\n", len(s.tps), trials, w.wall.Seconds(), w.cpu.Seconds(), s.tps[len(s.tps)-1])
	s.cpu = append(s.cpu, float64(w.cpu)/float64(time.Millisecond)/float64(trials))
	s.alloc = append(s.alloc, float64(w.alloc)/1024/float64(trials))
}

// endToEnd sets the end-to-end metrics shared by every workload. what
// names the operation whose latency the percentiles describe.
func (s *iterStats) endToEnd(rep *report, what string) {
	rep.set("setup_s", "s", median(s.setups))
	rep.set("trials_per_s", "1/s", median(s.tps))
	rep.set("cpu_ms_per_trial", "ms", median(s.cpu))
	rep.set("alloc_kb_per_trial", "KiB", median(s.alloc))
	lat := msOf(s.lat)
	rep.set("latency_p50_ms", "ms", percentile(lat, 0.5))
	rep.set("latency_p90_ms", "ms", percentile(lat, 0.9))
	note := ""
	if !tailOK(len(lat), 0.9) {
		note = " (too few samples beyond p90)"
	}
	q1, q3 := quartiles(s.setups)
	fmt.Printf("iterations=%d setups=%d (quartiles %.3g s, %.3g s) %s latency samples=%d, %d beyond p90%s\n",
		len(s.tps), len(s.setups), q1, q3, what, len(lat), tailSamples(len(lat), 0.9), note)
}
