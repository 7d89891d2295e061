package harness

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"syscall"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/failpt"
	"dpmr/internal/faultinject"
	"dpmr/internal/journal"
)

// journaledGoldenReport runs the Spec through the journal and renders
// the report its golden pins: an experiment through GenerateJournaled, a
// concurrent Spec as RenderConcurrent, and the fig3.7 campaign as the
// fig3.7 figure (the generator fed the journaled result).
func journaledGoldenReport(t *testing.T, r *Runner, spec Spec, j *journal.Journal, rp *journal.Replay) ([]byte, int, error) {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer
	if spec.Kind == SpecExperiment {
		executed, err := GenerateJournaled(ctx, spec, j, rp, DefaultResumeSpans, &buf, Options{Runner: r}, nil)
		return buf.Bytes(), executed, err
	}
	res, executed, err := r.RunJournaled(ctx, spec, j, rp, DefaultResumeSpans, nil)
	if err != nil {
		return nil, executed, err
	}
	if res.Concurrent != nil {
		RenderConcurrent(&buf, res.Concurrent)
		return buf.Bytes(), executed, nil
	}
	replay := Options{exec: func(context.Context, *Runner, Spec) (Result, error) { return res, nil }}
	if err := Generate(ctx, quickExp("fig3.7"), &buf, replay); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), executed, nil
}

// TestFailpointsFireOnEveryKind arms harness/span and then
// harness/resume on a campaign, a concurrent Spec, and a journaled
// overhead experiment: each armed run must fail with the named injected
// error, and a final resume of the journal they left behind must render
// the golden report.
func TestFailpointsFireOnEveryKind(t *testing.T) {
	exp, err := quickExp("fig3.7").Normalized()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name, golden string
		spec         Spec
	}{
		{"campaign", "fig3.7", campaignSpec(exp, faultinject.ImmediateFree, DiversityVariants(dpmr.SDS))},
		{"concurrent", "chash", goldenConcurrent("chash")},
		{"experiment", "fig3.16", quickExp("fig3.16")},
	}
	t.Cleanup(failpt.Disarm)
	r := NewRunner() // shared, as by a persistent worker: warm caches keep the table cheap
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			j, dir, fp := newTestJournal(t, k.spec)
			var rp *journal.Replay
			// harness/span fails the second span, after the first was
			// journaled; harness/resume then refuses the resume outright.
			for _, site := range []string{"harness/span", "harness/resume"} {
				hit := map[string]string{"harness/span": "2", "harness/resume": "1"}[site]
				if err := failpt.Arm(site + "=err(EIO)@" + hit); err != nil {
					t.Fatal(err)
				}
				_, executed, err := journaledGoldenReport(t, r, k.spec, j, rp)
				hits := failpt.Hits(site)
				failpt.Disarm()
				if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "failpt "+site) {
					t.Fatalf("armed %s: err = %v, want the injected EIO named by the site", site, err)
				}
				if hits == 0 {
					t.Fatalf("armed %s was never evaluated", site)
				}
				if site == "harness/span" && executed == 0 {
					t.Errorf("no span completed before the injected span failure")
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				j, rp = reopenJournal(t, dir, fp)
			}
			defer j.Close()
			got, executed, err := journaledGoldenReport(t, r, k.spec, j, rp)
			if err != nil {
				t.Fatal(err)
			}
			if executed == 0 {
				t.Error("the final resume executed nothing: the injected failures left no gaps")
			}
			checkGolden(t, k.golden, "resumed after harness/span and harness/resume", got)
		})
	}
}
