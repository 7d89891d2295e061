package main

// The campaign replay re-executes a campaign Spec's canonical trial plan
// through the public layer entry points — faultinject.Apply →
// dpmr.Transform → interp.Compile once per module, then interp.Run per
// trial — so the traced run can time each layer from outside. Every
// replayed result is checked against Runner.RunOnce for the same trial,
// which proves the replay did exactly the engine's work.

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
	"dpmr/internal/workloads"
)

// transformSeed is the fixed DPMR transform seed the campaign engine
// builds every variant with. The RunOnce comparison fails if the two
// ever drift apart.
const transformSeed = 12345

// campaignTrial is one (workload, variant, site, run) of a plan.
type campaignTrial struct {
	w    workloads.Workload
	v    harness.Variant
	site faultinject.Site
	rn   int
}

// planCampaign lays out a normalized campaign Spec's trials in the
// engine's canonical order: per workload, per sampled site, the stdapp
// runs and then the runs of every DPMR variant.
func planCampaign(spec harness.Spec, base func(workloads.Workload) *ir.Module) ([]campaignTrial, error) {
	var kind faultinject.Kind
	found := false
	for _, k := range []faultinject.Kind{faultinject.HeapArrayResize, faultinject.ImmediateFree} {
		if k.String() == spec.Inject {
			kind, found = k, true
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown injection %q", spec.Inject)
	}
	var trials []campaignTrial
	for _, name := range spec.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, site := range sampleSites(faultinject.Enumerate(base(w), kind), spec.MaxSites) {
			for rn := 0; rn < spec.Runs; rn++ {
				trials = append(trials, campaignTrial{w, harness.Stdapp(), site, rn})
			}
			for _, vs := range spec.Variants {
				v, err := vs.Variant()
				if err != nil {
					return nil, err
				}
				if !v.DPMR {
					continue
				}
				for rn := 0; rn < spec.Runs; rn++ {
					trials = append(trials, campaignTrial{w, v, site, rn})
				}
			}
		}
	}
	return trials, nil
}

// sampleSites is the engine's evenly spaced site cap.
func sampleSites(sites []faultinject.Site, max int) []faultinject.Site {
	if max <= 0 || len(sites) <= max {
		return sites
	}
	out := make([]faultinject.Site, 0, max)
	step := float64(len(sites)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, sites[int(float64(i)*step)])
	}
	return out
}

// builtModule is one replayed module, built at most once.
type builtModule struct {
	once sync.Once
	m    *ir.Module
	prog *interp.Program
	err  error
}

// replayer executes campaign trials through the layer entry points,
// recording a span per call when rec is non-nil.
type replayer struct {
	rec           *recorder
	mem           mem.Config
	timeoutFactor uint64
	pool          *mem.Pool
	golden        func(workloads.Workload) (*interp.Result, error)

	mu    sync.Mutex
	bases map[string]*ir.Module
	mods  map[string]*builtModule
	built atomic.Int64
}

func newReplayer(rec *recorder, spec harness.Spec, golden func(workloads.Workload) (*interp.Result, error)) *replayer {
	return &replayer{
		rec:           rec,
		mem:           spec.Mem,
		timeoutFactor: spec.TimeoutFactor,
		pool:          mem.NewPool(spec.Mem),
		golden:        golden,
		bases:         make(map[string]*ir.Module),
		mods:          make(map[string]*builtModule),
	}
}

// base returns the frozen, untransformed module of w.
func (rp *replayer) base(w workloads.Workload) *ir.Module {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	m := rp.bases[w.Name]
	if m == nil {
		m = w.Build()
		m.Freeze()
		rp.bases[w.Name] = m
	}
	return m
}

// module returns the executable module of t, building it on first use
// inside the parent span.
func (rp *replayer) module(t campaignTrial, op, parent int) (*ir.Module, *interp.Program, error) {
	key := t.w.Name + "|" + t.v.Label() + "|" + t.site.String()
	rp.mu.Lock()
	e := rp.mods[key]
	if e == nil {
		e = &builtModule{}
		rp.mods[key] = e
	}
	rp.mu.Unlock()
	e.once.Do(func() {
		base := rp.base(t.w)
		var m *ir.Module
		rp.rec.timed("faultinject.Apply", op, parent, func() { m, e.err = faultinject.Apply(base, t.site) })
		if e.err != nil {
			return
		}
		if t.v.DPMR {
			rp.rec.timed("dpmr.Transform", op, parent, func() {
				m, e.err = dpmr.Transform(m, dpmr.Config{
					Design: t.v.Design, Diversity: t.v.Diversity, Policy: t.v.Policy, Seed: transformSeed,
				})
			})
			if e.err != nil {
				return
			}
		}
		m.Freeze()
		rp.rec.timed("interp.Compile", op, parent, func() {
			prog, err := interp.Compile(m)
			if err == nil {
				e.prog = prog // a module that does not compile runs on the walker, as in the engine
			}
		})
		e.m = m
		rp.built.Add(1)
	})
	return e.m, e.prog, e.err
}

// runOne executes trial i of trials inside a root "trial" span.
func (rp *replayer) runOne(t campaignTrial, op int) (*interp.Result, error) {
	root := rp.rec.begin("trial", op, -1)
	defer rp.rec.end(root)
	golden, err := rp.golden(t.w)
	if err != nil {
		return nil, err
	}
	m, prog, err := rp.module(t, op, root)
	if err != nil {
		return nil, err
	}
	externs := extlib.Base()
	if t.v.DPMR {
		externs = extlib.Wrapped(t.v.Design)
	}
	var res *interp.Result
	rp.rec.timed("interp.Run", op, root, func() {
		res = interp.Run(m, interp.Config{
			Externs:   externs,
			Mem:       rp.mem,
			Seed:      int64(t.rn) + 1,
			StepLimit: golden.Steps * rp.timeoutFactor * 5,
			Prog:      prog,
			SpacePool: rp.pool,
		})
	})
	return res, nil
}

// run executes trials on workers goroutines in plan order; op numbers
// start at opBase.
func (rp *replayer) run(trials []campaignTrial, workers, opBase int) ([]*interp.Result, error) {
	results := make([]*interp.Result, len(trials))
	errs := make([]error, len(trials))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(trials) {
					return
				}
				results[i], errs[i] = rp.runOne(trials[i], opBase+i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t := trials[i]
			return nil, fmt.Errorf("replay trial %d: %s %s %s: %w", i, t.v.Label(), t.w.Name, t.site, err)
		}
	}
	return results, nil
}

// trialTotals sums the simulated work of replayed results.
func trialTotals(results []*interp.Result) totals {
	var t totals
	for _, r := range results {
		t.Trials++
		t.Steps += r.Steps
		t.Cycles += r.Cycles
		t.Memops += r.Mem.Loads + r.Mem.Stores
	}
	return t
}

// verifyAgainstRunOnce re-runs every trial through Runner.RunOnce and
// counts the trials whose result differs from the replay's in any field.
func verifyAgainstRunOnce(r *harness.Runner, trials []campaignTrial, results []*interp.Result) (int, error) {
	bad := 0
	for i, t := range trials {
		site := t.site
		o, err := r.RunOnce(t.w, t.v, &site, t.rn)
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(o.Res, results[i]) {
			bad++
			if bad <= 3 {
				fmt.Printf("MISMATCH: replay of trial %d (%s %s %s run %d) differs from RunOnce\n",
					i, t.w.Name, t.v.Label(), t.site, t.rn)
			}
		}
	}
	return bad, nil
}
