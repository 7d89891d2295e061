package sched

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpmr/internal/consist"
	"dpmr/internal/dpmr"
	"dpmr/internal/failpt"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
	"dpmr/internal/opt"
	"dpmr/internal/workloads"
)

const testStepLimit = 100_000_000

// runClean executes one group and fails the test on any abnormal exit.
func runClean(t *testing.T, m *ir.Module, threads int, seed int64) *Result {
	t.Helper()
	res := Run(m, Config{
		Threads: threads,
		Seed:    seed,
		VM:      interp.Config{StepLimit: testStepLimit, Seed: 7},
	})
	c := res.Combined
	if c.Kind != interp.ExitNormal || c.Code != 0 {
		t.Fatalf("%s threads=%d: %v code %d (%s)", m.Name, threads, c.Kind, c.Code, c.Reason)
	}
	return res
}

func TestConcurrentWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads.Concurrent() {
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%d", w.Name, threads), func(t *testing.T) {
				m := w.Build(threads)
				m.Freeze()
				res := runClean(t, m, threads, 42)
				rep := consist.Check(res.Trace)
				if !rep.Clean() {
					t.Fatalf("consistency violations: %v", rep.Violations)
				}
				if rep.Truncated {
					t.Fatalf("trace truncated at default limit (%d events)", rep.Events)
				}
				if rep.Events == 0 {
					t.Fatal("no shared-tier accesses recorded")
				}
			})
		}
	}
}

// TestScheduleDeterminism: the whole group outcome — per-thread results,
// combined result, trace stream, and switch count — must be a pure
// function of (seed, module, config).
func TestScheduleDeterminism(t *testing.T) {
	w := workloads.Concurrent()[0]
	m := w.Build(3)
	m.Freeze()
	a := runClean(t, m, 3, 1234)
	b := runClean(t, m, 3, 1234)
	if !reflect.DeepEqual(a.Combined, b.Combined) {
		t.Fatalf("combined results differ:\n%+v\n%+v", a.Combined, b.Combined)
	}
	if a.Switches != b.Switches {
		t.Fatalf("switch counts differ: %d vs %d", a.Switches, b.Switches)
	}
	for tid := range a.Threads {
		if !reflect.DeepEqual(a.Threads[tid], b.Threads[tid]) {
			t.Fatalf("thread %d results differ", tid)
		}
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for tid := 0; tid < a.Trace.Threads(); tid++ {
		if !reflect.DeepEqual(a.Trace.Thread(tid), b.Trace.Thread(tid)) {
			t.Fatalf("thread %d traces differ", tid)
		}
	}
}

// TestScheduleSeedVaries: different schedule seeds should still verify
// clean with identical program output (the workloads' interleaving-
// independence), while actually exploring different interleavings.
func TestScheduleSeedVaries(t *testing.T) {
	w := workloads.Concurrent()[2]
	m := w.Build(3)
	m.Freeze()
	var out []byte
	sawDifferentSchedule := false
	var firstSwitches uint64
	for i, seed := range []int64{1, 2, 3, 99} {
		res := runClean(t, m, 3, seed)
		if rep := consist.Check(res.Trace); !rep.Clean() {
			t.Fatalf("seed %d: violations: %v", seed, rep.Violations)
		}
		if i == 0 {
			out = res.Combined.Output
			firstSwitches = res.Switches
			continue
		}
		if !bytes.Equal(res.Combined.Output, out) {
			t.Fatalf("seed %d: output diverged across schedules", seed)
		}
		if res.Switches != firstSwitches {
			sawDifferentSchedule = true
		}
	}
	if !sawDifferentSchedule {
		t.Fatal("all seeds produced identical switch counts: scheduler seed seems inert")
	}
}

// TestDPMRTransformedConcurrent: the SDS/MDS-transformed workloads must
// run without spurious DPMR detections under interleaving — the fused
// replica binding on atomics is what makes the instrumentation itself
// race-free.
func TestDPMRTransformedConcurrent(t *testing.T) {
	for _, design := range []dpmr.Design{dpmr.SDS, dpmr.MDS} {
		for _, w := range workloads.Concurrent() {
			t.Run(fmt.Sprintf("%v/%s", design, w.Name), func(t *testing.T) {
				base := w.Build(3)
				base.Freeze()
				golden := runClean(t, base, 3, 5)

				xm, err := dpmr.Transform(w.Build(3), dpmr.Config{Design: design, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				opt.Run(xm)
				xm.Freeze()
				res := runClean(t, xm, 3, 5)
				if !bytes.Equal(res.Combined.Output, golden.Combined.Output) {
					t.Fatalf("transformed output diverges from golden")
				}
				if rep := consist.Check(res.Trace); !rep.Clean() {
					t.Fatalf("violations on transformed run: %v", rep.Violations)
				}
			})
		}
	}
}

// crashWorkerModule builds a group whose worker traps at once while main
// spins on a shared flag that is never set.
func crashWorkerModule() *ir.Module {
	m := ir.NewModule("crashworker")
	b := ir.NewBuilder(m)
	m.AddGlobal("sink", ir.I64)

	b.Function("worker", ir.Void, []string{"tid"}, ir.I64)
	// Store through a null pointer: an immediate trap.
	null := b.IntToPtr(b.I64(0), ir.Ptr(ir.I64))
	b.Store(null, b.I64(1))
	b.Ret(nil)

	b.Function("main", ir.I64, nil)
	g := b.GlobalAddr("sink")
	b.While("spin", func() *ir.Reg {
		return b.Cmp(ir.CmpEQ, b.AtomicRMW(ir.AtomicAdd, g, b.I64(0)), b.I64(0))
	}, func() {})
	b.Ret(b.I64(0))
	m.Freeze()
	return m
}

// TestAbortOnThreadFailure: a worker trap aborts the whole group and
// classifies the combined result.
func TestAbortOnThreadFailure(t *testing.T) {
	res := Run(crashWorkerModule(), Config{Threads: 2, Seed: 9, VM: interp.Config{StepLimit: testStepLimit}})
	if res.Combined.Kind != interp.ExitTrap {
		t.Fatalf("want trap, got %v (%s)", res.Combined.Kind, res.Combined.Reason)
	}
	if res.FailedThread != 1 {
		t.Fatalf("want failed thread 1, got %d", res.FailedThread)
	}
	if res.Threads[0] != nil {
		t.Fatalf("main should have been unwound, got %+v", res.Threads[0])
	}
}

// TestAbortLeavesNoGoroutines: every thread of an aborted group ends,
// including one the unwind chain starts for the first time (it runs to
// its first yield and unwinds there instead of parking for good).
func TestAbortLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for threads := 3; threads <= 4; threads++ {
		for seed := int64(1); seed <= 4; seed++ {
			res := Run(crashWorkerModule(), Config{Threads: threads, Seed: seed, VM: interp.Config{StepLimit: testStepLimit}})
			if res.Combined.Kind != interp.ExitTrap {
				t.Fatalf("t%d s%d: want trap, got %v (%s)", threads, seed, res.Combined.Kind, res.Combined.Reason)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("aborted groups left %d goroutines behind", n-before)
	}
}

// TestPooledSpaceAfterAbort: a space recycled from a pool whose last
// group was traced, 3-threaded and aborted mid-run replays a group
// exactly like a fresh space — every Result field, trace included.
func TestPooledSpaceAfterAbort(t *testing.T) {
	pool := mem.NewPool(mem.Config{})
	m := buildFrozen(workloads.Concurrent()[0], 3)
	abort := Run(m, Config{Threads: 3, Seed: 3, VM: interp.Config{StepLimit: 5_000, Seed: 7, SpacePool: pool}})
	if abort.Combined.Kind != interp.ExitTimeout || abort.FailedThread < 0 {
		t.Fatalf("dirtying group: want a timeout abort, got %v (%s)", abort.Combined.Kind, abort.Combined.Reason)
	}
	if abort.Trace == nil || abort.Trace.Len() == 0 {
		t.Fatal("dirtying group recorded no trace")
	}
	recycled := pool.Get()
	pool.Put(recycled)

	cfg := Config{Threads: 3, Seed: 1234, VM: interp.Config{StepLimit: testStepLimit, Seed: 7}}
	fresh := Run(m, cfg)
	cfg.VM.SpacePool = pool
	pooled := Run(m, cfg)
	if s := pool.Get(); s != recycled {
		t.Fatal("the pooled group did not run on (and return) the recycled space")
	}
	if fresh.Combined.Kind != interp.ExitNormal {
		t.Fatalf("fresh group: %v (%s)", fresh.Combined.Kind, fresh.Combined.Reason)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Fatalf("pooled group diverged from fresh group:\nfresh  %+v\npooled %+v", fresh.Combined, pooled.Combined)
	}
}

// TestSpacePoolMismatchRejected: a pool built for another memory
// geometry is refused by name instead of running the group in the wrong
// address space.
func TestSpacePoolMismatchRejected(t *testing.T) {
	m := buildFrozen(workloads.Concurrent()[0], 2)
	small := mem.NewPool(mem.Config{HeapBytes: 64 * 1024, StackBytes: 8 * 1024, GlobalBytes: 4096})
	res := Run(m, Config{Threads: 2, VM: interp.Config{SpacePool: small}})
	if res.Combined.Kind != interp.ExitError || !strings.Contains(res.Combined.Reason, "SpacePool built for") {
		t.Fatalf("want a named ExitError, got %v (%s)", res.Combined.Kind, res.Combined.Reason)
	}
}

// TestWalkerIsOracle: a concurrent run must refuse the compiled fast
// path; binding a Program changes nothing because Yield forces the
// walker.
func TestWalkerIsOracle(t *testing.T) {
	w := workloads.Concurrent()[0]
	m := w.Build(2)
	m.Freeze()
	prog, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	plain := runClean(t, m, 2, 77)
	res := Run(m, Config{
		Threads: 2,
		Seed:    77,
		VM:      interp.Config{StepLimit: testStepLimit, Seed: 7, Prog: prog},
	})
	if res.Combined.Kind != interp.ExitNormal {
		t.Fatalf("with Prog bound: %v (%s)", res.Combined.Kind, res.Combined.Reason)
	}
	if !reflect.DeepEqual(plain.Combined, res.Combined) {
		t.Fatalf("Prog-bound group diverged from walker group")
	}
}

// The two new failpoint sites must be registered so failpt's random
// torture schedules automatically include them.
func TestConcurrencyFailpointSitesRegistered(t *testing.T) {
	sites := failpt.Sites()
	for _, name := range []string{"mem/trace-drop", "interp/yield-stall"} {
		if _, ok := sites[name]; !ok {
			t.Errorf("site %s not registered", name)
		}
	}
}

// TestTraceDropFailpoint: dropped trace events are counted as metadata
// and never crash the run. (Lost writes may legitimately surface as
// thin-air reads downstream — that is the checker doing its job — so
// only run health and the drop count are asserted here.)
func TestTraceDropFailpoint(t *testing.T) {
	if err := failpt.Arm("mem/trace-drop=drop@2+"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpt.Disarm)
	w := workloads.Concurrent()[0]
	m := w.Build(2)
	m.Freeze()
	res := runClean(t, m, 2, 13)
	if res.Trace.Dropped() == 0 {
		t.Fatal("armed drop failpoint discarded nothing")
	}
	if rep := consist.Check(res.Trace); rep.Dropped != res.Trace.Dropped() {
		t.Fatalf("report drop count %d != recorder %d", rep.Dropped, res.Trace.Dropped())
	}
}

// TestYieldStallFailpoint: a stalled yield delays but never corrupts the
// handover — the group still runs to a clean deterministic finish.
func TestYieldStallFailpoint(t *testing.T) {
	if err := failpt.Arm("interp/yield-stall=stall(1)@3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpt.Disarm)
	w := workloads.Concurrent()[1]
	m := w.Build(2)
	m.Freeze()
	res := runClean(t, m, 2, 21)
	if failpt.Hits("interp/yield-stall") < 3 {
		t.Fatalf("yield-stall site hit only %d times", failpt.Hits("interp/yield-stall"))
	}
	if rep := consist.Check(res.Trace); !rep.Clean() {
		t.Fatalf("stall must not corrupt anything: %v", rep.Violations)
	}
}
