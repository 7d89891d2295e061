package harness

// Concurrent campaigns: multi-VM workloads under the deterministic
// interleaving scheduler (internal/sched), with the offline consistency
// checker (internal/consist) as an extra detection axis. The canonical
// flat trial plan — per concurrent workload, every variant, Runs runs,
// run rn exploring schedule SchedSeed+rn — is a pure function of the
// normalized concurrent Spec, exactly like campaign and overhead plans,
// so the whole shard/merge/journal/coordinator pipeline (plan.go)
// applies unchanged: shards emit ordinary PartialResults and Merge
// reassembles a result byte-identical to an unsharded run.
//
// Concurrent trials always execute on the tree-walking reference
// interpreter: the scheduler's yield hook routes every VM through the
// walker loop, which keeps the walker the oracle for interleaved
// execution and makes compiled-engine divergence structurally unable to
// leak into concurrent results — so concurrent modules are cached
// without a compiled program.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"dpmr/internal/consist"
	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/sched"
	"dpmr/internal/workloads"
)

// concurrentTrial is one scheduled group run of a concurrent plan.
type concurrentTrial struct {
	w  workloads.ConcurrentWorkload
	v  Variant
	rn int // run number; the trial explores schedule SchedSeed+rn
}

// concurrentPlan is the canonical flat trial layout of a concurrent
// campaign. Like campaignPlan it is a pure function of its normalized
// Spec, so contiguous index ranges are a host-independent sharding unit
// and the fingerprint lets Merge refuse partials cut from a different
// plan.
type concurrentPlan struct {
	outcomeWire
	workloads   []string
	variants    []Variant
	threads     int
	schedSeed   int64
	runs        int
	trials      []concurrentTrial
	fingerprint string
}

// planConcurrent lays the (workload, variant, run) grid out flat in
// canonical order from the normalized concurrent Spec. Unlike campaign
// plans, stdapp rows get their own trials: with no injection the
// interesting axis is the schedule, and every variant — stdapp included
// — runs each of the Runs schedules.
func planConcurrent(spec Spec) (*concurrentPlan, error) {
	variants, err := spec.resolveVariants()
	if err != nil {
		return nil, err
	}
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	p := &concurrentPlan{
		variants:  variants,
		threads:   spec.Threads,
		schedSeed: spec.SchedSeed,
		runs:      spec.Runs,
		trials:    make([]concurrentTrial, 0, len(spec.Workloads)*len(variants)*spec.Runs),
	}
	h := sha256.New()
	fmt.Fprintf(h, "dpmr concurrent plan v1\nspec %s\n", canon)
	for _, name := range spec.Workloads {
		w, err := workloads.ConcurrentByName(name)
		if err != nil {
			return nil, err
		}
		p.workloads = append(p.workloads, w.Name)
		fmt.Fprintf(h, "workload %s\n", w.Name)
		for _, v := range variants {
			for rn := 0; rn < spec.Runs; rn++ {
				p.trials = append(p.trials, concurrentTrial{w: w, v: v, rn: rn})
			}
		}
	}
	fmt.Fprintf(h, "trials %d\n", len(p.trials))
	p.fingerprint = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// concurrentModule returns the cached executable module of (workload,
// variant) built for the given thread count. The thread count is folded
// into the cache key because Build(threads) bakes the worker count into
// the module. No compiled program is produced: the scheduler's yield
// hook runs every concurrent VM on the reference walker.
func (r *Runner) concurrentModule(w workloads.ConcurrentWorkload, v Variant, threads int) (*ir.Module, error) {
	key := moduleKey{workload: w.Name + "#t" + strconv.Itoa(threads), variant: v.Label()}
	m, _, err := r.cache.get(key, func() (*ir.Module, *interp.Program, error) {
		m := w.Build(threads)
		if v.DPMR {
			xm, err := dpmr.Transform(m, dpmr.Config{
				Design:    v.Design,
				Diversity: v.Diversity,
				Policy:    v.Policy,
				Seed:      transformSeed,
			})
			if err != nil {
				return nil, nil, err
			}
			m = xm
		}
		m.Freeze()
		return m, nil, nil
	})
	return m, err
}

// concurrentGolden runs (and caches) the fault-free stdapp group of w
// under the base schedule seed. The memo key includes the thread count
// and schedule seed, and the cache is the Runner's golden map, so a
// memory-geometry change invalidates concurrent goldens exactly like
// sequential ones (applySpec drops the map).
func (r *Runner) concurrentGolden(w workloads.ConcurrentWorkload, threads int, schedSeed int64) (*interp.Result, error) {
	key := "concurrent:" + w.Name + ":t" + strconv.Itoa(threads) + ":s" + strconv.FormatInt(schedSeed, 10)
	r.mu.Lock()
	g, ok := r.golden[key]
	if !ok {
		g = &goldenInfo{}
		r.golden[key] = g
	}
	r.mu.Unlock()
	g.once.Do(func() {
		m, err := r.concurrentModule(w, Stdapp(), threads)
		if err != nil {
			g.err = err
			return
		}
		res := sched.Run(m, sched.Config{
			Threads:       threads,
			Seed:          schedSeed,
			TraceDisabled: true,
			VM:            interp.Config{Externs: extlib.Base(), Mem: r.MemConfig, SpacePool: r.spaces()},
		})
		c := res.Combined
		if c.Kind != interp.ExitNormal || c.Code != 0 {
			g.err = fmt.Errorf("harness: concurrent golden %s (%d threads, schedule %d) failed: %v code %d (%s)",
				w.Name, threads, schedSeed, c.Kind, c.Code, c.Reason)
			return
		}
		g.res = c
	})
	return g.res, g.err
}

// runConcurrentOnce executes one concurrent trial: the workload's group
// under schedule SchedSeed+rn, classified against the golden group plus
// the consistency checker's verdict over the recorded trace.
func (r *Runner) runConcurrentOnce(w workloads.ConcurrentWorkload, v Variant, threads int, schedSeed int64, rn int) (Outcome, error) {
	golden, err := r.concurrentGolden(w, threads, schedSeed)
	if err != nil {
		return Outcome{}, err
	}
	m, err := r.concurrentModule(w, v, threads)
	if err != nil {
		return Outcome{}, err
	}
	externs := extlib.Base()
	if v.DPMR {
		externs = extlib.Wrapped(v.Design)
	}
	res := sched.Run(m, sched.Config{
		Threads: threads,
		Seed:    schedSeed + int64(rn),
		VM: interp.Config{
			Externs:   externs,
			Mem:       r.MemConfig,
			SpacePool: r.spaces(),
			Seed:      int64(rn) + 1,
			StepLimit: golden.Steps * r.TimeoutFactor * 5, // group steps sum over threads
		},
	})
	o := r.classify(golden, res.Combined)
	o.ConsistViol = !consist.Check(res.Trace).Clean()
	res.Trace.Release() // the verdict is all a trial keeps of its trace
	return o, nil
}

func (plan *concurrentPlan) fp() string { return plan.fingerprint }
func (plan *concurrentPlan) size() int  { return len(plan.trials) }

// exec runs trials [lo, hi) on the worker pool and returns their
// classifications, with the same completed-prefix cancellation contract
// as campaignPlan.exec.
func (plan *concurrentPlan) exec(ctx context.Context, r *Runner, lo, hi int) ([]TrialOutcome, error) {
	outcomes := make([]TrialOutcome, hi-lo)
	errs := make([]error, hi-lo)
	done := r.fanOut(ctx, hi-lo, func(i int) {
		t := plan.trials[lo+i]
		o, err := r.runConcurrentOnce(t.w, t.v, plan.threads, plan.schedSeed, t.rn)
		if err != nil {
			errs[i] = err
			return
		}
		outcomes[i] = o.Trial()
	})
	for i := 0; i < done; i++ {
		if err := errs[i]; err != nil {
			t := plan.trials[lo+i]
			return nil, fmt.Errorf("concurrent trial %d: %s %s run %d: %w", lo+i, t.v.Label(), t.w.Name, t.rn, err)
		}
	}
	if done < hi-lo {
		return outcomes[:done], context.Cause(ctx)
	}
	return outcomes, nil
}

// ---------------------------------------------------------------------------
// Aggregation

// ConcurrentCell aggregates one (workload, variant) pair of a concurrent
// campaign: fractions of all trials (there is no injection, so unlike
// CoverageCell nothing conditions on SF). CO/NatDet/DpmrDet follow the
// §3.6 priority; ConsistViol is the independent trace-checker axis and
// can overlap any of them — a consistency violation under literal
// correct output is precisely the silent failure the checker exists to
// surface.
type ConcurrentCell struct {
	N           int     // trials observed
	CO          float64 // correct output
	NatDet      float64 // natural detection (and not CO)
	DpmrDet     float64 // DPMR detection (and not CO)
	ConsistViol float64 // trace checker flagged the trial (any class)
}

func (c *ConcurrentCell) add(o TrialOutcome) {
	c.N++
	switch {
	case o.CO:
		c.CO++
	case o.DpmrDet:
		c.DpmrDet++
	case o.NatDet:
		c.NatDet++
	}
	if o.ConsistViol {
		c.ConsistViol++
	}
}

func (c *ConcurrentCell) finalize() {
	if c.N > 0 {
		c.CO /= float64(c.N)
		c.NatDet /= float64(c.N)
		c.DpmrDet /= float64(c.N)
		c.ConsistViol /= float64(c.N)
	}
}

// ConcurrentResult holds per-(workload, variant) outcome fractions of a
// concurrent campaign.
type ConcurrentResult struct {
	Workloads []string
	Variants  []Variant
	Threads   int
	SchedSeed int64
	Cells     map[string]map[string]*ConcurrentCell // variant label → workload → cell
}

// Cell retrieves one aggregation cell.
func (cr *ConcurrentResult) Cell(variant Variant, workload string) *ConcurrentCell {
	return cr.Cells[variant.Label()][workload]
}

// aggregate folds the full plan's trial outcomes into a ConcurrentResult
// in canonical order — identical iteration whether the outcomes came
// from one process or merged shards.
func (plan *concurrentPlan) aggregate(outcomes []TrialOutcome) *ConcurrentResult {
	cr := &ConcurrentResult{
		Workloads: plan.workloads,
		Variants:  plan.variants,
		Threads:   plan.threads,
		SchedSeed: plan.schedSeed,
		Cells:     make(map[string]map[string]*ConcurrentCell),
	}
	for _, v := range plan.variants {
		cr.Cells[v.Label()] = make(map[string]*ConcurrentCell)
		for _, wname := range plan.workloads {
			cr.Cells[v.Label()][wname] = &ConcurrentCell{}
		}
	}
	for i, t := range plan.trials {
		cr.Cells[t.v.Label()][t.w.Name].add(outcomes[i])
	}
	for _, byW := range cr.Cells {
		for _, c := range byW {
			c.finalize()
		}
	}
	return cr
}

// RenderConcurrent writes the concurrent campaign summary — the report
// block the CLI, merge path, and CI drills all share, so the
// consistency-violation column renders identically everywhere.
func RenderConcurrent(w io.Writer, cr *ConcurrentResult) {
	fmt.Fprintf(w, "concurrent campaign: %d threads, schedule seed %d\n", cr.Threads, cr.SchedSeed)
	fmt.Fprintf(w, "%-28s %-8s %6s %8s %8s %8s %12s\n",
		"variant", "workload", "n", "CO", "NatDet", "DpmrDet", "ConsistViol")
	for _, v := range cr.Variants {
		for _, wname := range cr.Workloads {
			c := cr.Cells[v.Label()][wname]
			fmt.Fprintf(w, "%-28s %-8s %6d %8.2f %8.2f %8.2f %12.2f\n",
				v.Label(), wname, c.N, c.CO, c.NatDet, c.DpmrDet, c.ConsistViol)
		}
	}
}

// RunConcurrent executes the full concurrent campaign the Spec
// describes: every concurrent workload × every variant × Runs scheduled
// group runs. Like RunCampaign, trials execute on the worker pool and
// outcomes aggregate in canonical order, so the result is byte-identical
// at every worker count; a Runner configured with a proper shard is
// refused — shard with a Session (WithShard) or ShardPayload, then Merge.
func (r *Runner) RunConcurrent(ctx context.Context, spec Spec) (*ConcurrentResult, error) {
	res, err := r.runWhole(ctx, spec, SpecConcurrent, "RunConcurrent")
	return res.Concurrent, err
}
