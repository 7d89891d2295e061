package harness

// Resumable, adaptively sized execution over a crash-safe journal
// (internal/journal), for every single-plan kind. The flow: Runner.Resume
// (plan.go) diffs the
// canonical plan against the journal's replayed records by plan
// fingerprint and computes the uncovered gaps; Resume.Spans cuts
// those gaps into explicit trial spans whose sizes follow the observed
// per-trial cost in the journal (slow regions get smaller spans, so a
// straggling span loses less work to the next interruption) — and the
// cut is a pure function of (journal bytes, Spec), so a resumed plan is
// reproducible; the journaled driver (RunJournaled) then executes the
// spans, appending each completed partial to the journal before moving
// on, and finishes with the ordinary fingerprint-validated exact-tiling
// merge, which is what guarantees a resumed report is byte-identical to
// an uninterrupted run and that no trial is ever dropped or
// double-counted. This file holds the span cutter and the experiment
// layer over it.

import (
	"context"
	"fmt"
	"io"

	"dpmr/internal/failpt"
	"dpmr/internal/journal"
)

// Failpoint sites on the session/resume paths: harness/resume fails
// the plan-vs-journal diff (a resume that cannot trust its replay must
// refuse, not guess), harness/span fails one span execution inside a
// journaled run (the retry/refusal behavior of the drivers above it is
// what the drill exercises).
var (
	siteResume = failpt.Register("harness/resume", failpt.KindErr)
	siteSpan   = failpt.Register("harness/span", failpt.KindErr)
)

// DefaultResumeSpans is how many spans a journaled in-process run cuts
// its remaining work into. Deliberately independent of the worker count:
// the re-cut plan — and therefore the journal's record layout — must be
// identical whether the resumed run executes with 1 or 8 workers.
const DefaultResumeSpans = 8

// rangeGaps returns the sub-ranges of [0, total) that the parts (already
// in ascending order, non-overlapping — the journal enforces both) do
// not cover, as explicit spans.
func rangeGaps(parts []partHead, total int) ([]ShardSpec, error) {
	var gaps []ShardSpec
	next := 0
	for _, p := range parts {
		lo, hi := p.lo, p.hi
		if lo < next {
			return nil, fmt.Errorf("%w: journaled ranges overlap at trial %d", journal.ErrCorrupt, lo)
		}
		if lo > next {
			gaps = append(gaps, SpanShard(next, lo))
		}
		next = hi
	}
	if next < total {
		gaps = append(gaps, SpanShard(next, total))
	}
	return gaps, nil
}

// OpenJournal resolves the CLIs' -journal/-resume flag pair against the
// Spec: without resume it creates a fresh journal in dir (refusing, with
// journal.ErrExists, to clobber one already there); with resume it opens
// the existing journal (journal.ErrNoJournal when there is none) and
// verifies the Spec fingerprint matches (journal.ErrSpecMismatch — a
// journal resumes only the exact experiment that started it). The
// returned replay is nil for a fresh journal.
func OpenJournal(dir string, resume bool, spec Spec) (*journal.Journal, *journal.Replay, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, nil, err
	}
	fp, err := n.Fingerprint()
	if err != nil {
		return nil, nil, err
	}
	if resume {
		return journal.Open(dir, fp)
	}
	canon, err := n.Canonical()
	if err != nil {
		return nil, nil, err
	}
	j, err := journal.Create(dir, canon, fp)
	return j, nil, err
}

// observedRates builds the per-trial cost model (ms per trial) over the
// whole plan from the covered spans (in range order): covered trials
// take their recording shard's mean rate; uncovered trials interpolate
// the nearest covered neighbors (mean of both sides, one side at the
// edges), falling back to the global mean, and to a uniform 1.0 when the
// journal holds no timing at all (a fresh journal: the adaptive cut then
// degrades to the uniform cut).
func observedRates(covered []partHead, total int) []float64 {
	rates := make([]float64, total)
	sum, nRated := 0.0, 0
	observed := func(s partHead) float64 { // 0 = unknown
		if s.elapsedMS > 0 && s.hi > s.lo {
			return float64(s.elapsedMS) / float64(s.hi-s.lo)
		}
		return 0
	}
	for _, s := range covered {
		if r := observed(s); r > 0 {
			sum += r * float64(s.hi-s.lo)
			nRated += s.hi - s.lo
		}
	}
	mean := 1.0
	if nRated > 0 {
		mean = sum / float64(nRated)
	}
	rate := func(s partHead) float64 {
		if r := observed(s); r > 0 {
			return r
		}
		return mean
	}
	for i := range rates {
		rates[i] = mean
	}
	for _, s := range covered {
		for i := s.lo; i < s.hi && i < total; i++ {
			rates[i] = rate(s)
		}
	}
	// Interpolate uncovered stretches from their covered neighbors.
	next := 0
	for si := 0; si <= len(covered); si++ {
		gapLo, gapHi := next, total
		var left, right *partHead
		if si > 0 {
			left = &covered[si-1]
		}
		if si < len(covered) {
			right = &covered[si]
			gapHi = right.lo
			next = right.hi
		}
		if gapLo >= gapHi {
			continue
		}
		est := mean
		switch {
		case left != nil && right != nil:
			est = (rate(*left) + rate(*right)) / 2
		case left != nil:
			est = rate(*left)
		case right != nil:
			est = rate(*right)
		}
		for i := gapLo; i < gapHi && i < total; i++ {
			rates[i] = est
		}
	}
	return rates
}

// adaptiveSpans distributes n spans across the gaps proportionally to
// each gap's estimated cost (largest-remainder rounding, ties to the
// earlier gap; every gap gets at least one span and never more than its
// trial count), then cuts each gap at equal-cost boundaries, so costly
// regions end up in smaller spans.
func adaptiveSpans(n int, gaps []ShardSpec, rates []float64) []ShardSpec {
	if len(gaps) == 0 {
		return nil
	}
	if n < len(gaps) {
		n = len(gaps)
	}
	gapCost := make([]float64, len(gaps))
	totalCost := 0.0
	for gi, g := range gaps {
		for i := g.Lo; i < g.Hi; i++ {
			gapCost[gi] += rates[i]
		}
		totalCost += gapCost[gi]
	}
	// Proportional share, floored, then largest remainders take the rest.
	counts := make([]int, len(gaps))
	type rem struct {
		gi   int
		frac float64
	}
	var rems []rem
	assigned := 0
	for gi, g := range gaps {
		share := float64(n) / float64(len(gaps))
		if totalCost > 0 {
			share = float64(n) * gapCost[gi] / totalCost
		}
		counts[gi] = int(share)
		if counts[gi] < 1 {
			counts[gi] = 1
		}
		if max := g.Hi - g.Lo; counts[gi] > max {
			counts[gi] = max
		}
		assigned += counts[gi]
		rems = append(rems, rem{gi, share - float64(int(share))})
	}
	for assigned < n {
		best := -1
		for _, r := range rems {
			g := gaps[r.gi]
			if counts[r.gi] >= g.Hi-g.Lo {
				continue
			}
			if best < 0 || r.frac > rems[best].frac ||
				(r.frac == rems[best].frac && r.gi < rems[best].gi) {
				best = r.gi
			}
		}
		if best < 0 {
			break // every gap is at one span per trial
		}
		counts[best]++
		rems[best].frac = 0 // one extra each round, round-robin by remainder
		assigned++
	}
	var spans []ShardSpec
	for gi, g := range gaps {
		spans = append(spans, cutByCost(g, counts[gi], rates)...)
	}
	return spans
}

// cutByCost splits one gap into ng spans at equal-cost boundaries: the
// cumulative cost walks forward and each span closes once it holds its
// 1/ng share, while always leaving at least one trial per remaining
// span.
func cutByCost(g ShardSpec, ng int, rates []float64) []ShardSpec {
	trials := g.Hi - g.Lo
	if ng <= 1 || trials <= 1 {
		return []ShardSpec{g}
	}
	if ng > trials {
		ng = trials
	}
	total := 0.0
	for i := g.Lo; i < g.Hi; i++ {
		total += rates[i]
	}
	target := total / float64(ng)
	spans := make([]ShardSpec, 0, ng)
	lo := g.Lo
	acc := 0.0
	for i := g.Lo; i < g.Hi; i++ {
		acc += rates[i]
		remainingSpans := ng - len(spans) - 1
		remainingTrials := g.Hi - (i + 1)
		if remainingSpans > 0 && (acc >= target || remainingTrials <= remainingSpans) && i+1 > lo {
			spans = append(spans, SpanShard(lo, i+1))
			lo = i + 1
			acc = 0
		}
	}
	if lo < g.Hi {
		spans = append(spans, SpanShard(lo, g.Hi))
	}
	return spans
}

// --------------------------------------------------------------------------
// Journaled experiment generation with progressive reports.

// journalState holds the resume state of every journaled sub-plan of an
// experiment seen so far, keyed by plan fingerprint — the state a
// progressive snapshot renders from. The dedicated snapshot Runner keeps
// snapshot rendering from disturbing the live Runner's configuration
// (Options.runner installs event sinks and policy on whichever Runner it
// is given).
type journalState struct {
	plans    map[string]*Resume
	executed int
	sr       *Runner
}

// snapshotOptions builds the interposer that renders a progressive
// report from the accumulated state without executing a single trial:
// each sub-plan aggregates whatever parts the state holds over
// zero-valued stand-ins for the rest, exactly the GenerateSharded trick.
func (st *journalState) snapshotOptions() Options {
	return Options{
		Runner: st.sr,
		exec: func(_ context.Context, r *Runner, spec Spec) (Result, error) {
			ps, err := r.plan(spec, "", "GenerateJournaled")
			if err != nil {
				return Result{}, err
			}
			if c, ok := st.plans[ps.fp()]; ok {
				return c.Snapshot(), nil
			}
			return ps.snapshot(), nil
		},
	}
}

// done reports covered/total trials across every sub-plan seen so far.
func (st *journalState) done() (done, total int) {
	for _, c := range st.plans {
		done += c.Done()
		total += c.Total
	}
	return done, total
}

// GenerateJournaled regenerates the experiment the Spec names with every
// campaign and overhead measurement inside it running through the
// journal: replayed coverage is skipped, gaps execute as adaptively cut
// spans, and each completed span lands in the journal before the next
// starts. The true report is rendered to out (byte-identical to an
// uninterrupted Generate). snap, when non-nil, fires after replay and
// after every completed span with a renderer that writes the current
// progressive report — paper-accurate partial numbers over zero-valued
// stand-ins for the trials still missing — plus covered/total counts.
// The returned int counts trials executed by this call.
func GenerateJournaled(ctx context.Context, spec Spec, j *journal.Journal, prior *journal.Replay, spans int,
	out io.Writer, opts Options, snap func(render func(io.Writer) error, done, total int)) (int, error) {
	n, err := spec.normalizedAs(SpecExperiment, "GenerateJournaled")
	if err != nil {
		return 0, err
	}
	st := &journalState{plans: make(map[string]*Resume), sr: NewRunner()}
	opts.exec = func(ctx context.Context, r *Runner, sub Spec) (Result, error) {
		res, executed, err := r.runJournaled(ctx, sub, j, prior, spans, func(c *Resume) {
			st.plans[c.PlanFP] = c
			if snap != nil {
				done, total := st.done()
				snap(func(w io.Writer) error { return Generate(ctx, n, w, st.snapshotOptions()) }, done, total)
			}
		})
		st.executed += executed
		return res, err
	}
	if err := Generate(ctx, n, out, opts); err != nil {
		return st.executed, err
	}
	return st.executed, nil
}
