package main

import (
	"bytes"
	"context"
	"fmt"

	"dpmr/internal/harness"
	"dpmr/internal/workloads"
)

// regeneratePins recomputes every pinned output from the program and
// writes perfbench/pins.json. Each pin is cross-checked before it is
// written: replayed trials must equal RunOnce, the concurrent replay
// must render the engine's report, and every sweep report received over
// the daemon must equal the in-process engine's.
func regeneratePins(ctx context.Context, c *config) error {
	p := pins{}

	r, camps, err := paperSetup(nil)
	if err != nil {
		return err
	}
	digests, _, err := paperPass(ctx, c, r, nil)
	if err != nil {
		return err
	}
	pr, err := replayPaper(c, camps, r, nil)
	if err != nil {
		return err
	}
	for i, e := range paperExperiments {
		if bad, err := verifyAgainstRunOnce(r, pr.trials[i], pr.results[i]); err != nil || bad > 0 {
			return fmt.Errorf("%s: replay differs from RunOnce on %d trials (%v)", e.id, bad, err)
		}
		p.put(paperName, e.id, pin{Report: digests[e.id], Totals: trialTotals(pr.results[i])})
	}

	for slot := 0; slot < concSlots; slot++ {
		r, spec, err := concSetup(slot, nil)
		if err != nil {
			return err
		}
		d, _, err := concPass(ctx, c, r, spec, nil)
		if err != nil {
			return err
		}
		rr, err := replayConcurrent(c, spec, nil)
		if err != nil {
			return err
		}
		if rr.digest != d {
			return fmt.Errorf("concurrent %s: replayed report differs from the engine's", concKey(slot))
		}
		p.put(concName, concKey(slot), pin{Report: d, Totals: rr.tot})
	}

	specs := sweepSpecs(1)
	f, err := startFleet(ctx, c)
	if err != nil {
		return err
	}
	subs, err := sweepPass(ctx, c, nil, f, specs, nil)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	for i, s := range specs {
		spec, err := s.spec.Normalized()
		if err != nil {
			return err
		}
		sess, err := harness.Start(ctx, spec)
		if err != nil {
			return err
		}
		res, err := sess.Wait()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		renderCampaign(&buf, res.Campaign)
		if digest(buf.Bytes()) != subs[i].digest {
			return fmt.Errorf("sweep %s: report over the daemon differs from the in-process engine's", s.key)
		}
		r := harness.NewRunner()
		if _, err := r.PlanTrials(spec); err != nil {
			return err
		}
		w, err := workloads.ByName(spec.Workloads[0])
		if err != nil {
			return err
		}
		if _, err := r.Golden(w); err != nil {
			return err
		}
		rp := newReplayer(nil, spec, r.Golden)
		trials, err := planCampaign(spec, rp.base)
		if err != nil {
			return err
		}
		results, err := rp.run(trials, 1, 0)
		if err != nil {
			return err
		}
		if bad, err := verifyAgainstRunOnce(r, trials, results); err != nil || bad > 0 {
			return fmt.Errorf("sweep %s: replay differs from RunOnce on %d trials (%v)", s.key, bad, err)
		}
		p.put(sweepName, s.key, pin{Report: subs[i].digest, Totals: trialTotals(results)})
	}
	if err := p.write(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d paper, %d concurrent, %d sweep pins\n", pinsFile, len(p[paperName]), len(p[concName]), len(p[sweepName]))
	return nil
}
