// Package sched runs concurrent multi-VM workloads under a seeded,
// deterministic interleaving scheduler.
//
// A concurrent group is N interpreter VMs sharing one mem.Space: thread 0
// runs main(), threads 1..N-1 run worker(tid). Execution is cooperative —
// every VM yields at each load, store, atomic, and fence (Config.Yield in
// interp) — and strictly serialized: exactly one VM executes at any
// instant, so the group contains no Go-level data races even though the
// simulated threads race freely over shared simulated memory. At every
// yield the running thread itself draws the next runnable thread from a
// PRNG seeded with the schedule seed: drawing itself, it simply goes on;
// drawing another, it hands control over with one channel send. The
// interleaving is thus a pure function of (seed, program): the same
// trial replays bit-identically at any host parallelism, which is what
// extends the harness's byte-identity guarantees (shard/merge/journal/
// coordinator) to the concurrent kind.
//
// The first thread to exit abnormally (trap, DPMR detection, timeout)
// aborts the group: remaining threads are resumed once, in thread order,
// to unwind via a sentinel panic and the failing thread's exit
// classifies the trial.
// Because the walker is the oracle for concurrent execution (the Yield
// hook routes every VM through the tree-walking loop), compiled-engine
// divergence cannot leak into concurrent results.
package sched

import (
	"fmt"
	"math/rand"

	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
)

// WorkerFunc is the entry point worker threads run: worker(tid).
const WorkerFunc = "worker"

// Config configures one concurrent group run.
type Config struct {
	// Threads is the total VM count (>= 1): one main plus Threads-1
	// workers. A module without a worker function admits only Threads=1.
	Threads int
	// Seed seeds the interleaving PRNG. It is independent of the VM
	// PRNG seed (Config.VM.Seed): the same program can be explored under
	// many schedules and vice versa.
	Seed int64
	// TraceLimit caps each thread's recorded shared-tier accesses
	// (0 = mem.NewTraceRec's default). Overflow marks the trace
	// truncated rather than failing the run.
	TraceLimit int
	// TraceDisabled skips trace recording entirely (benchmarks).
	TraceDisabled bool
	// VM is the per-thread VM configuration. Mem sizes the one shared
	// space; SpacePool, when set, supplies that space and takes it back
	// after the run (its config must match Mem); Seed seeds thread 0,
	// with worker seeds derived per thread; SharedSpace, SharedGlobals,
	// Yield, and ThreadID are managed by the scheduler and must be
	// unset. StepLimit bounds each thread separately.
	VM interp.Config
}

// Result is the outcome of one concurrent group run.
type Result struct {
	// Combined classifies the whole group: the first abnormal thread
	// exit, or a normal exit carrying thread 0's code. Steps and Cycles
	// sum over threads (interleaving is serial, so the sum is the
	// group's clock); Output concatenates per-thread output in thread
	// order; Mem is the shared space's statistics.
	Combined *interp.Result
	// Threads holds each thread's own result; aborted threads (unwound
	// after another thread failed first) are nil.
	Threads []*interp.Result
	// FailedThread is the thread whose exit classified an abnormal
	// Combined (-1 when the group exited normally).
	FailedThread int
	// Trace is the shared-tier access trace (nil when disabled).
	Trace *mem.TraceRec
	// Switches counts scheduler handovers (context switches).
	Switches uint64
}

// abortUnwind is the sentinel panic that unwinds a parked thread after
// the group has aborted.
type abortUnwind struct{}

// thread is one scheduled VM's control block.
type thread struct {
	id     int
	resume chan struct{}
	res    *interp.Result
}

// group is the interleaving state of one Run. Exactly one goroutine —
// the running thread, or Run before the first handoff — touches it at a
// time; every handoff is a channel send, which orders the accesses.
type group struct {
	rng     *rand.Rand
	live    []*thread // threads that have not exited, in draw order
	cur     int       // live index of the thread drawn last
	aborted bool
	space   *mem.Space
	trace   *mem.TraceRec
	res     *Result
	done    chan struct{} // signaled once the last thread has exited
}

// pick chooses the next thread to run and hands it the space (stack
// window and trace labeling): a PRNG draw over the live threads, or,
// once the group has aborted, the next thread of the unwind chain in
// live order. It returns nil when no thread is left.
func (g *group) pick() *thread {
	if len(g.live) == 0 {
		return nil
	}
	var u *thread
	if g.aborted {
		u, g.live = g.live[0], g.live[1:]
	} else {
		g.cur = g.rng.Intn(len(g.live))
		u = g.live[g.cur]
	}
	g.space.SwitchStack(u.id)
	if g.trace != nil {
		g.trace.SetThread(u.id)
	}
	return u
}

// handoff passes control to u, or tells Run the group is over when u is
// nil.
func (g *group) handoff(u *thread) {
	if u == nil {
		g.done <- struct{}{}
	} else {
		u.resume <- struct{}{}
	}
}

// yield is running thread t's scheduling point: it draws the next thread
// itself and keeps running when it draws itself, so a yield costs a
// channel hop only when control actually moves. It panics the abort
// sentinel when the group has failed — at once for a thread that first
// reaches a yield inside the unwind chain, or on resumption for a parked
// one.
func (g *group) yield(t *thread) {
	if !g.aborted {
		g.res.Switches++
		u := g.pick()
		if u == t {
			return
		}
		g.handoff(u)
		<-t.resume
		if !g.aborted {
			return
		}
	}
	panic(abortUnwind{})
}

// exit retires thread t (finished, or unwound by the abort sentinel),
// starts the unwind chain on the group's first abnormal exit, and hands
// control on.
func (g *group) exit(t *thread) {
	g.res.Switches++
	g.res.Threads[t.id] = t.res
	if !g.aborted {
		// Chain threads were already taken off live when picked.
		g.live = append(g.live[:g.cur], g.live[g.cur+1:]...)
		if t.res != nil && t.res.Kind != interp.ExitNormal {
			// First abnormal exit: classify the group and unwind the rest.
			g.aborted = true
			g.res.FailedThread = t.id
		}
	}
	g.handoff(g.pick())
}

// derivedSeed spreads the base VM seed across worker threads (splitmix
// increment) so threads draw independent RandInt streams.
func derivedSeed(base int64, tid int) int64 {
	return base + int64(tid)*-0x61C8864680B583EB
}

// Run executes one concurrent group of m and returns its outcome. Setup
// failures (bad config, missing worker function, a SpacePool built for
// another memory geometry) are reported as an ExitError Combined result,
// mirroring interp.Run.
func Run(m *ir.Module, cfg Config) *Result {
	fail := func(format string, args ...any) *Result {
		return &Result{
			Combined:     &interp.Result{Kind: interp.ExitError, Reason: fmt.Sprintf(format, args...)},
			FailedThread: -1,
		}
	}
	n := cfg.Threads
	if n < 1 {
		return fail("sched: Threads must be >= 1, got %d", n)
	}
	if cfg.VM.SharedSpace != nil || cfg.VM.SharedGlobals != nil || cfg.VM.Yield != nil {
		return fail("sched: Config.VM space and yield fields are scheduler-managed")
	}
	mainFn := m.Func("main")
	if mainFn == nil {
		return fail("sched: no main function")
	}
	workerFn := m.Func(WorkerFunc)
	if n > 1 {
		if workerFn == nil {
			return fail("sched: %d threads but module has no %s function", n, WorkerFunc)
		}
		if len(workerFn.Params) != 1 {
			return fail("sched: %s must take one (tid) parameter, has %d", WorkerFunc, len(workerFn.Params))
		}
	}

	pool := cfg.VM.SpacePool
	var space *mem.Space
	if pool != nil {
		if got := pool.Config(); got != cfg.VM.Mem.WithDefaults() {
			return fail("sched: Config.VM.SpacePool built for %+v, but Config.VM.Mem wants %+v", got, cfg.VM.Mem.WithDefaults())
		}
		space = pool.Get()
	} else {
		space = mem.NewSpace(cfg.VM.Mem)
	}
	// On setup failure a pooled space goes straight back to the pool.
	setupFail := func(format string, args ...any) *Result {
		if pool != nil {
			pool.Put(space)
		}
		return fail(format, args...)
	}
	if err := space.PartitionStack(n); err != nil {
		return setupFail("sched: %v", err)
	}
	var trace *mem.TraceRec
	if !cfg.TraceDisabled {
		trace = mem.NewTraceRec(n, cfg.TraceLimit)
		space.SetTrace(trace)
	}

	g := &group{
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		live:  make([]*thread, n),
		space: space,
		trace: trace,
		res:   &Result{Threads: make([]*interp.Result, n), FailedThread: -1, Trace: trace},
		done:  make(chan struct{}),
	}
	vms := make([]*interp.VM, n)
	for tid := 0; tid < n; tid++ {
		t := &thread{id: tid, resume: make(chan struct{})}
		g.live[tid] = t
		vcfg := cfg.VM
		vcfg.SpacePool = nil
		vcfg.SharedSpace = space
		vcfg.ThreadID = tid
		vcfg.Yield = func() { g.yield(t) }
		if tid > 0 {
			vcfg.Seed = derivedSeed(cfg.VM.Seed, tid)
			vcfg.SharedGlobals = vms[0].GlobalTable()
		}
		// Globals must land in thread 0's part of the setup, so build VMs
		// in thread order with window 0 current (allocas during argv
		// materialization land in thread 0's window; workloads take no
		// args, so in practice setup allocates globals only).
		vm, err := interp.NewVM(m, vcfg)
		if err != nil {
			return setupFail("sched: thread %d: %v", tid, err)
		}
		vms[tid] = vm
	}

	// One goroutine per thread, each parked until its first resume. Every
	// handoff is a single send from the thread giving up control to the
	// one taking it, so the threads form one logical thread of control.
	for tid := range g.live {
		t, vm := g.live[tid], vms[tid]
		go func() {
			<-t.resume
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortUnwind); !ok {
						panic(r)
					}
					t.res = nil // unwound after the group aborted
				}
				g.exit(t)
			}()
			if t.id == 0 {
				t.res = vm.Run()
			} else {
				t.res = vm.RunEntry(workerFn, []uint64{uint64(t.id)})
			}
		}()
	}
	g.handoff(g.pick())
	<-g.done

	// Combine per-thread results into the group classification.
	res := g.res
	comb := &interp.Result{Kind: interp.ExitNormal}
	if res.FailedThread >= 0 {
		f := res.Threads[res.FailedThread]
		comb.Kind = f.Kind
		comb.Reason = fmt.Sprintf("thread %d: %s", res.FailedThread, f.Reason)
	} else {
		// A normal group exit carries the first nonzero thread exit code
		// (in thread order), so a worker's error-signalling exit(2) is as
		// visible to natural-detection classification as main's.
		for _, r := range res.Threads {
			if r != nil && r.Code != 0 {
				comb.Code = r.Code
				break
			}
		}
	}
	for _, r := range res.Threads {
		if r == nil {
			continue
		}
		comb.Steps += r.Steps
		comb.Cycles += r.Cycles
		comb.Output = append(comb.Output, r.Output...)
		if r.FaultSeen && (!comb.FaultSeen || r.FaultCycle < comb.FaultCycle) {
			comb.FaultSeen = true
			comb.FaultCycle = r.FaultCycle
		}
	}
	comb.Mem = space.Stats()
	if pool != nil {
		pool.Put(space)
	}
	res.Combined = comb
	return res
}
