package main

// concurrent: chash, cpipe and csteal × {stdapp, sds/no-diversity/all
// loads} with 3 threads and 32 runs, through harness.Start on nproc
// workers. The seed picks the schedule seeds: iteration i of a run uses
// schedule slot (seed+i) mod concSlots, so every run explores the same
// pinned slots and a long enough run visits all of them.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpmr/internal/consist"
	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/harness"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/sched"
	"dpmr/internal/workloads"
)

const (
	concName    = "concurrent"
	concSlots   = 8
	concRuns    = 32
	concThreads = 3
	// concSetupReps is how many set-ups precede each timed pass. A
	// concurrent set-up takes tens of microseconds, so many readings
	// make its median steady.
	concSetupReps = 100
)

var concWorkloads = []string{"chash", "cpipe", "csteal"}

func concVariants() []harness.Variant {
	return []harness.Variant{harness.Stdapp(), harness.NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{})}
}

// concSlot is the schedule slot iteration i of a run with seed uses.
func concSlot(seed int64, i int) int {
	s := (seed + int64(i)) % concSlots
	if s < 0 {
		s += concSlots
	}
	return int(s)
}

// concSpec is the campaign of one schedule slot: slots cover disjoint
// runs of schedule seeds.
func concSpec(slot int) harness.Spec {
	s := harness.ConcurrentSpec(concWorkloads, concVariants())
	s.Runs = concRuns
	s.Threads = concThreads
	s.SchedSeed = 1 + int64(slot)*concRuns
	return s
}

func concKey(slot int) string { return fmt.Sprintf("slot%d", slot) }

// concSetup is everything before the first trial can run: Spec
// normalization and PlanTrials on a fresh Runner. (Concurrent golden
// groups run lazily inside the first trials.)
func concSetup(slot int, rec *recorder) (*harness.Runner, harness.Spec, error) {
	spec, err := concSpec(slot).Normalized()
	if err != nil {
		return nil, harness.Spec{}, err
	}
	r := harness.NewRunner()
	rec.timed("harness.PlanTrials", -1, -1, func() { _, err = r.PlanTrials(spec) })
	return r, spec, err
}

// concPass runs one slot's campaign on r and returns the report digest
// and trial count.
func concPass(ctx context.Context, c *config, r *harness.Runner, spec harness.Spec, lat *[]time.Duration) (string, int, error) {
	s, err := harness.Start(ctx, spec, harness.WithRunner(r), harness.WithParallel(c.parallel))
	if err != nil {
		return "", 0, err
	}
	n := 0
	res, err := s.Drain(func(ev harness.Event) {
		if td, ok := ev.(harness.TrialDone); ok {
			n++
			if lat != nil {
				*lat = append(*lat, td.Elapsed)
			}
		}
	})
	if err != nil {
		return "", 0, err
	}
	if res.Concurrent == nil {
		return "", 0, fmt.Errorf("concurrent session returned no result")
	}
	var buf bytes.Buffer
	harness.RenderConcurrent(&buf, res.Concurrent)
	return digest(buf.Bytes()), n, nil
}

func measureConcurrent(ctx context.Context, c *config) (*report, error) {
	rep := newReport()
	r, spec, err := concSetup(concSlot(c.seed, 0), nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := concPass(ctx, c, r, spec, nil); err != nil {
		return nil, err
	}
	var st iterStats
	start := time.Now()
	for i := 0; len(st.tps) == 0 || !c.deadline(start); i++ {
		slot := concSlot(c.seed, i)
		if err := st.timeSetups(concSetupReps, func() (time.Duration, error) {
			t := time.Now()
			r, spec, err = concSetup(slot, nil)
			return time.Since(t), err
		}); err != nil {
			return nil, err
		}
		u := readUsage()
		d, n, err := concPass(ctx, c, r, spec, &st.lat)
		if err != nil {
			return nil, err
		}
		w := u.until(readUsage())
		rep.attempted += n
		c.pins.checkReport(rep, concName, concKey(slot), d, n)
		st.add(w, n)
	}
	st.endToEnd(rep, "trial")
	return rep, nil
}

// concTrial is one group run of the replayed plan.
type concTrial struct {
	w  workloads.ConcurrentWorkload
	v  harness.Variant
	rn int
}

// concOutcome is what the replay keeps of one group run.
type concOutcome struct {
	o        harness.TrialOutcome
	steps    uint64
	cycles   uint64
	memops   uint64
	switches uint64
	events   uint64
}

// concReplayer re-executes a concurrent plan through sched.Run and
// consist.Check, building each module with the workload builder and
// dpmr.Transform.
type concReplayer struct {
	rec  *recorder
	spec harness.Spec

	mu     sync.Mutex
	mods   map[string]*builtModule
	golden map[string]*goldenGroup
}

type goldenGroup struct {
	once sync.Once
	res  *interp.Result
	err  error
}

func (cr *concReplayer) module(w workloads.ConcurrentWorkload, v harness.Variant, op, parent int) (*ir.Module, error) {
	key := w.Name + "|" + v.Label()
	cr.mu.Lock()
	e := cr.mods[key]
	if e == nil {
		e = &builtModule{}
		cr.mods[key] = e
	}
	cr.mu.Unlock()
	e.once.Do(func() {
		var m *ir.Module
		cr.rec.timed("workloads.Build", op, parent, func() { m = w.Build(cr.spec.Threads) })
		if v.DPMR {
			cr.rec.timed("dpmr.Transform", op, parent, func() {
				m, e.err = dpmr.Transform(m, dpmr.Config{
					Design: v.Design, Diversity: v.Diversity, Policy: v.Policy, Seed: transformSeed,
				})
			})
			if e.err != nil {
				return
			}
		}
		m.Freeze()
		e.m = m
	})
	return e.m, e.err
}

// goldenOf runs the fault-free stdapp group under the base schedule
// seed, the baseline trials are classified against.
func (cr *concReplayer) goldenOf(w workloads.ConcurrentWorkload, op, parent int) (*interp.Result, error) {
	cr.mu.Lock()
	g := cr.golden[w.Name]
	if g == nil {
		g = &goldenGroup{}
		cr.golden[w.Name] = g
	}
	cr.mu.Unlock()
	g.once.Do(func() {
		m, err := cr.module(w, harness.Stdapp(), op, parent)
		if err != nil {
			g.err = err
			return
		}
		cr.rec.timed("harness.Golden", op, parent, func() {
			res := sched.Run(m, sched.Config{
				Threads:       cr.spec.Threads,
				Seed:          cr.spec.SchedSeed,
				TraceDisabled: true,
				VM:            interp.Config{Externs: extlib.Base(), Mem: cr.spec.Mem},
			})
			g.res = res.Combined
		})
		if g.res.Kind != interp.ExitNormal || g.res.Code != 0 {
			g.err = fmt.Errorf("golden group of %s failed: %v code %d (%s)", w.Name, g.res.Kind, g.res.Code, g.res.Reason)
		}
	})
	return g.res, g.err
}

func (cr *concReplayer) runOne(t concTrial, op int) (concOutcome, error) {
	root := cr.rec.begin("trial", op, -1)
	defer cr.rec.end(root)
	golden, err := cr.goldenOf(t.w, op, root)
	if err != nil {
		return concOutcome{}, err
	}
	m, err := cr.module(t.w, t.v, op, root)
	if err != nil {
		return concOutcome{}, err
	}
	externs := extlib.Base()
	if t.v.DPMR {
		externs = extlib.Wrapped(t.v.Design)
	}
	var res *sched.Result
	cr.rec.timed("sched.Run", op, root, func() {
		res = sched.Run(m, sched.Config{
			Threads: cr.spec.Threads,
			Seed:    cr.spec.SchedSeed + int64(t.rn),
			VM: interp.Config{
				Externs:   externs,
				Mem:       cr.spec.Mem,
				Seed:      int64(t.rn) + 1,
				StepLimit: golden.Steps * cr.spec.TimeoutFactor * 5,
			},
		})
	})
	var check *consist.Report
	cr.rec.timed("consist.Check", op, root, func() { check = consist.Check(res.Trace) })
	c := res.Combined
	out := concOutcome{
		o:        classify(golden, c),
		steps:    c.Steps,
		cycles:   c.Cycles,
		memops:   c.Mem.Loads + c.Mem.Stores,
		switches: res.Switches,
		events:   check.Events,
	}
	out.o.ConsistViol = !check.Clean()
	return out, nil
}

// classify is the §3.6 classification of a run against its golden run.
func classify(golden, res *interp.Result) harness.TrialOutcome {
	var o harness.TrialOutcome
	o.SF = res.FaultSeen
	switch res.Kind {
	case interp.ExitNormal:
		if res.Code == golden.Code && bytes.Equal(res.Output, golden.Output) {
			o.CO = true
		} else if res.Code != 0 && res.Code != golden.Code {
			o.NatDet = true
		}
	case interp.ExitTrap:
		o.NatDet = true
	case interp.ExitDetect:
		o.DpmrDet = true
	}
	return o
}

// concReplay is one replay of a slot's plan.
type concReplay struct {
	digest string
	tot    totals
	w      window
}

func replayConcurrent(c *config, spec harness.Spec, rec *recorder) (*concReplay, error) {
	variants := concVariants()
	var trials []concTrial
	for _, name := range spec.Workloads {
		w, err := workloads.ConcurrentByName(name)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			for rn := 0; rn < spec.Runs; rn++ {
				trials = append(trials, concTrial{w, v, rn})
			}
		}
	}
	cr := &concReplayer{rec: rec, spec: spec, mods: map[string]*builtModule{}, golden: map[string]*goldenGroup{}}
	outs := make([]concOutcome, len(trials))
	errs := make([]error, len(trials))
	u := readUsage()
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < c.parallel; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(trials) {
					return
				}
				outs[i], errs[i] = cr.runOne(trials[i], i)
			}
		}()
	}
	wg.Wait()
	out := &concReplay{w: u.until(readUsage())}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replay group %d: %w", i, err)
		}
	}

	// Aggregate exactly as the engine does and render the same report.
	res := &harness.ConcurrentResult{
		Workloads: spec.Workloads, Variants: variants, Threads: spec.Threads, SchedSeed: spec.SchedSeed,
		Cells: map[string]map[string]*harness.ConcurrentCell{},
	}
	for _, v := range variants {
		res.Cells[v.Label()] = map[string]*harness.ConcurrentCell{}
		for _, w := range spec.Workloads {
			res.Cells[v.Label()][w] = &harness.ConcurrentCell{}
		}
	}
	for i, t := range trials {
		cell := res.Cells[t.v.Label()][t.w.Name]
		o := outs[i]
		cell.N++
		switch {
		case o.o.CO:
			cell.CO++
		case o.o.DpmrDet:
			cell.DpmrDet++
		case o.o.NatDet:
			cell.NatDet++
		}
		if o.o.ConsistViol {
			cell.ConsistViol++
		}
		out.tot.add(totals{Trials: 1, Steps: o.steps, Cycles: o.cycles, Memops: o.memops, Switches: o.switches, Events: o.events})
	}
	for _, byW := range res.Cells {
		for _, cell := range byW {
			if n := float64(cell.N); n > 0 {
				cell.CO /= n
				cell.NatDet /= n
				cell.DpmrDet /= n
				cell.ConsistViol /= n
			}
		}
	}
	var buf bytes.Buffer
	harness.RenderConcurrent(&buf, res)
	out.digest = digest(buf.Bytes())
	return out, nil
}

// concLayers are the spans whose self times the traced run accounts for
// inside each trial.
var concLayers = []string{"workloads.Build", "dpmr.Transform", "harness.Golden", "sched.Run", "consist.Check"}

func traceConcurrent(ctx context.Context, c *config) (*report, error) {
	rep := newReport()
	rec := newRecorder()
	slot := concSlot(c.seed, 0)
	key := concKey(slot)
	r, spec, err := concSetup(slot, rec)
	if err != nil {
		return nil, err
	}
	u := readUsage()
	engineDigest, n, err := concPass(ctx, c, r, spec, nil)
	if err != nil {
		return nil, err
	}
	engine := u.until(readUsage())
	rep.attempted += n
	c.pins.checkReport(rep, concName, key, engineDigest, n)

	untraced, err := replayConcurrent(c, spec, nil)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	traced, err := replayConcurrent(c, spec, rec)
	peak := heap.finish()
	if err != nil {
		return nil, err
	}
	rep.attempted += int(traced.tot.Trials)
	if traced.digest != engineDigest {
		rep.mismatch(int(traced.tot.Trials), "%s %s: replayed report sha256 %s, engine %s", concName, key, traced.digest, engineDigest)
	}
	c.pins.checkTotals(rep, concName, key, traced.tot, int(traced.tot.Trials))
	fmt.Printf("engine pass: %d groups in %.3fs (%.1f trials/s); replay untraced %.3fs, traced %.3fs\n",
		n, engine.wall.Seconds(), float64(n)/engine.wall.Seconds(), untraced.w.wall.Seconds(), traced.w.wall.Seconds())

	sum := summarize(rec.snapshot())
	tot := traced.tot
	groups := float64(tot.Trials)
	workLayers(rep, tot)
	if runs := sum["sched.Run"]; runs != nil && groups > 0 {
		rep.set("sched.group_ms", "ms", float64(runs.total)/float64(time.Millisecond)/groups)
		rep.set("sched.switches_per_group", "count", float64(tot.Switches)/groups)
		if tot.Switches > 0 {
			rep.set("sched.ns_per_switch", "ns", float64(runs.total)/float64(tot.Switches))
		}
	}
	if chk := sum["consist.Check"]; chk != nil && groups > 0 {
		rep.set("consist.check_us_per_group", "us", float64(chk.total)/float64(time.Microsecond)/groups)
		rep.set("consist.events_per_group", "count", float64(tot.Events)/groups)
		if tot.Events > 0 {
			rep.set("consist.ns_per_event", "ns", float64(chk.total)/float64(tot.Events))
		}
	}
	rep.set("dpmr.transform_us", "us", meanOf(sum, "dpmr.Transform", time.Microsecond))
	rep.set("harness.modules_built", "count", float64(countOf(sum, "workloads.Build")))
	setupLayers(rep, sum)
	runtimeLayers(rep, traced.w.gcShare, peak, accountedShare(sum, "trial", concLayers), traced.w, untraced.w)
	return rep, nil
}
