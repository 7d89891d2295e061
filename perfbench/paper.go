package main

// paper-coverage: the full-size Specs of Figures 3.6 and 3.7 (656
// trials), run in-process through harness.Start on nproc workers. Fixed
// paper traffic: the seed is ignored.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dpmr/internal/dpmr"
	"dpmr/internal/harness"
	"dpmr/internal/interp"
	"dpmr/internal/workloads"
)

const paperName = "paper-coverage"

// paperExperiments are the figures the workload regenerates, with the
// fault kind each one's campaign injects.
var paperExperiments = []struct{ id, inject string }{
	{"fig3.6", "heap-array-resize"},
	{"fig3.7", "immediate-free"},
}

// paperSetupReps is how many set-ups precede each timed pass; setup_s
// is the median over a run's set-ups.
const paperSetupReps = 8

// paperCampaign is the campaign Spec an experiment's generator runs,
// derived from the normalized experiment Spec the way the generator
// derives it.
func paperCampaign(id, inject string) (harness.Spec, error) {
	e, err := harness.ExperimentSpec(id).Normalized()
	if err != nil {
		return harness.Spec{}, err
	}
	return harness.Spec{
		Kind:          harness.SpecCampaign,
		Workloads:     e.Workloads,
		Variants:      harness.VariantSpecs(harness.DiversityVariants(dpmr.SDS)...),
		Inject:        inject,
		Runs:          e.Runs,
		MaxSites:      e.MaxSites,
		TimeoutFactor: e.TimeoutFactor,
		Mem:           e.Mem,
	}.Normalized()
}

// paperSetup is everything before the first trial can run: Spec
// normalization, PlanTrials (base builds, site enumeration) and the
// golden runs, on a fresh Runner.
func paperSetup(rec *recorder) (*harness.Runner, []harness.Spec, error) {
	r := harness.NewRunner()
	var camps []harness.Spec
	for _, e := range paperExperiments {
		camp, err := paperCampaign(e.id, e.inject)
		if err != nil {
			return nil, nil, err
		}
		rec.timed("harness.PlanTrials", -1, -1, func() { _, err = r.PlanTrials(camp) })
		if err != nil {
			return nil, nil, err
		}
		camps = append(camps, camp)
	}
	for _, w := range workloads.All() {
		var err error
		rec.timed("harness.Golden", -1, -1, func() { _, err = r.Golden(w) })
		if err != nil {
			return nil, nil, err
		}
	}
	return r, camps, nil
}

// paperPass runs both experiments on r and returns each report's digest
// and trial count, appending per-trial latencies to lat.
func paperPass(ctx context.Context, c *config, r *harness.Runner, lat *[]time.Duration) (map[string]string, map[string]int, error) {
	digests := map[string]string{}
	counts := map[string]int{}
	for _, e := range paperExperiments {
		var buf bytes.Buffer
		s, err := harness.Start(ctx, harness.ExperimentSpec(e.id),
			harness.WithRunner(r), harness.WithParallel(c.parallel), harness.WithReport(&buf))
		if err != nil {
			return nil, nil, err
		}
		n := 0
		if _, err := s.Drain(func(ev harness.Event) {
			if td, ok := ev.(harness.TrialDone); ok {
				n++
				if lat != nil {
					*lat = append(*lat, td.Elapsed)
				}
			}
		}); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.id, err)
		}
		digests[e.id] = digest(buf.Bytes())
		counts[e.id] = n
	}
	return digests, counts, nil
}

func checkPaperReports(c *config, rep *report, digests map[string]string, counts map[string]int) {
	for _, e := range paperExperiments {
		rep.attempted += counts[e.id]
		c.pins.checkReport(rep, paperName, e.id, digests[e.id], counts[e.id])
	}
}

func measurePaper(ctx context.Context, c *config) (*report, error) {
	rep := newReport()
	// Untimed warm-up pass: caches, heap growth, lazy runtime set-up.
	r, _, err := paperSetup(nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := paperPass(ctx, c, r, nil); err != nil {
		return nil, err
	}
	var st iterStats
	start := time.Now()
	for len(st.tps) == 0 || !c.deadline(start) {
		if err := st.timeSetups(paperSetupReps, func() (time.Duration, error) {
			t := time.Now()
			r, _, err = paperSetup(nil)
			return time.Since(t), err
		}); err != nil {
			return nil, err
		}
		u := readUsage()
		digests, counts, err := paperPass(ctx, c, r, &st.lat)
		if err != nil {
			return nil, err
		}
		w := u.until(readUsage())
		checkPaperReports(c, rep, digests, counts)
		st.add(w, counts["fig3.6"]+counts["fig3.7"])
	}
	st.endToEnd(rep, "trial")
	return rep, nil
}

// paperLayers are the spans whose self times the traced run accounts
// for inside each trial.
var paperLayers = []string{"faultinject.Apply", "dpmr.Transform", "interp.Compile", "interp.Run"}

// paperReplay is one replay of both campaigns.
type paperReplay struct {
	trials  [][]campaignTrial // per experiment
	results [][]*interp.Result
	built   int64
	w       window
}

func replayPaper(c *config, camps []harness.Spec, r *harness.Runner, rec *recorder) (*paperReplay, error) {
	out := &paperReplay{}
	u := readUsage()
	op := 0
	for _, camp := range camps {
		rp := newReplayer(rec, camp, r.Golden)
		trials, err := planCampaign(camp, rp.base)
		if err != nil {
			return nil, err
		}
		res, err := rp.run(trials, c.parallel, op)
		if err != nil {
			return nil, err
		}
		op += len(trials)
		out.trials = append(out.trials, trials)
		out.results = append(out.results, res)
		out.built += rp.built.Load()
	}
	out.w = u.until(readUsage())
	return out, nil
}

func tracePaper(ctx context.Context, c *config) (*report, error) {
	rep := newReport()
	rec := newRecorder()
	r, camps, err := paperSetup(rec)
	if err != nil {
		return nil, err
	}
	// The engine's own pass checks the reports and warms the process.
	u := readUsage()
	digests, counts, err := paperPass(ctx, c, r, nil)
	if err != nil {
		return nil, err
	}
	engine := u.until(readUsage())
	checkPaperReports(c, rep, digests, counts)

	untraced, err := replayPaper(c, camps, r, nil)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	traced, err := replayPaper(c, camps, r, rec)
	peak := heap.finish()
	if err != nil {
		return nil, err
	}

	var all totals
	for i, e := range paperExperiments {
		trials, results := traced.trials[i], traced.results[i]
		rep.attempted += len(trials)
		bad, err := verifyAgainstRunOnce(r, trials, results)
		if err != nil {
			return nil, err
		}
		if bad > 0 {
			rep.mismatch(bad, "%s %s: %d replayed trials differ from RunOnce", paperName, e.id, bad)
		}
		tot := trialTotals(results)
		c.pins.checkTotals(rep, paperName, e.id, tot, len(trials))
		all.add(tot)
	}
	fmt.Printf("engine pass: %d trials in %.3fs (%.1f trials/s); replay untraced %.3fs, traced %.3fs\n",
		all.Trials, engine.wall.Seconds(), float64(all.Trials)/engine.wall.Seconds(),
		untraced.w.wall.Seconds(), traced.w.wall.Seconds())

	sum := summarize(rec.snapshot())
	buildLayers(rep, sum, traced.built)
	runLayers(rep, sum, all)
	workLayers(rep, all)
	setupLayers(rep, sum)
	runtimeLayers(rep, traced.w.gcShare, peak, accountedShare(sum, "trial", paperLayers), traced.w, untraced.w)
	return rep, nil
}
