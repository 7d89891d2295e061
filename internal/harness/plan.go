package harness

// One pipeline for every single-plan kind. Campaign, overhead and
// concurrent Specs each plan a canonical flat trial sequence that is a
// pure function of the normalized Spec; they differ only in what one
// trial yields (a TrialOutcome, or a cycle count), how a full sequence
// aggregates, and which partial type carries a span on the wire. kindPlan
// captures exactly that, and every step above it is written once: the
// partial run, the fingerprint-checked tiling merge, the journal replay
// and gap diff, the journaled span loop, and the progressive snapshot.
// A new kind is one plan type plus one case in Runner.plan.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"dpmr/internal/failpt"
	"dpmr/internal/journal"
)

// kindPlan is one kind's canonical plan, typed by its per-trial value V,
// its aggregate R and its partial wire type P. wrap and decode come from
// the wire codec the plan embeds (outcomeWire or cycleWire).
type kindPlan[V, R any, P partial[V]] interface {
	fp() string
	size() int
	// exec runs trials [lo, hi) and returns their values in trial order;
	// on cancellation it returns the completed prefix with ctx's error.
	exec(ctx context.Context, r *Runner, lo, hi int) ([]V, error)
	aggregate(vals []V) R
	wrap(h partHead, vals []V) P
	decode(r io.Reader) (P, error)
}

// partial is the typed wire form of one span of a plan: PartialResult or
// OverheadPartial.
type partial[V any] interface {
	wirePart
	comparable
	values() []V
}

// wirePart is a partial with its value type erased.
type wirePart interface {
	head() partHead
	check() error
	Encode(w io.Writer) error
}

// partHead is the plan identity and range header every partial carries:
// which plan the span was cut from, which trials it covers, and how long
// it took (cost metadata only; never merged or fingerprinted).
type partHead struct {
	fingerprint string
	shard       ShardSpec
	lo, hi      int
	total       int
	elapsedMS   int64
}

// check validates a header against its value count, independent of any
// plan, so malformed input surfaces as an error, never a panic. what
// names the partial type in errors.
func (h partHead) check(what string, n int) error {
	if h.lo < 0 || h.hi < h.lo || h.total < h.hi {
		return fmt.Errorf("harness: %s: invalid trial range [%d, %d) of %d", what, h.lo, h.hi, h.total)
	}
	if n != h.hi-h.lo {
		return fmt.Errorf("harness: %s: %d values for trial range [%d, %d)", what, n, h.lo, h.hi)
	}
	if h.fingerprint == "" {
		return fmt.Errorf("harness: %s: missing plan fingerprint", what)
	}
	return nil
}

// decodeChecked reads one JSON document into a new T and validates its
// shape — the decoder behind every partial type. It never panics on
// malformed input.
func decodeChecked[T any, PT interface {
	*T
	check() error
}](r io.Reader, what string) (PT, error) {
	p := PT(new(T))
	if err := json.NewDecoder(r).Decode(p); err != nil {
		return nil, fmt.Errorf("harness: decoding %s: %w", what, err)
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	return p, nil
}

// merged is the ShardMerged event announcing this span.
func (h partHead) merged() ShardMerged {
	return ShardMerged{Shard: h.shard, Lo: h.lo, Hi: h.hi, Total: h.total,
		Elapsed: time.Duration(h.elapsedMS) * time.Millisecond}
}

// planState is one planned single-plan Spec with its value types erased,
// plus the partials collected for it so far. It is what Session,
// ShardPayload, Merge, Resume, the journaled driver, and the experiment
// interposer drive; kindState is its only implementation.
type planState interface {
	fp() string
	size() int
	// run executes the shard's trial range and returns its partial plus
	// a Result carrying it — and, when the run covered the whole plan
	// without error, the aggregate. A cancelled run returns the
	// completed-prefix partial together with ctx's error.
	run(ctx context.Context, r *Runner, shard ShardSpec) (wirePart, Result, error)
	decode(payload []byte) (wirePart, error)
	// add collects a partial for a later merge or snapshot.
	add(p wirePart) error
	// replay collects the journal's records for this plan, validated.
	replay(rp *journal.Replay) error
	// covered lists the collected partials' headers in range order.
	covered() []partHead
	// merge validates that the collected partials tile the plan exactly
	// and aggregates them; what names the caller in errors.
	merge(r *Runner, what string) (Result, error)
	// snapshot aggregates the collected partials over zero-valued
	// stand-ins for the trials they do not cover.
	snapshot() Result
	// payloads serializes the collected partials in range order.
	payloads() ([][]byte, error)
}

// kindState implements planState for one kind.
type kindState[V, R any, P partial[V]] struct {
	plan  kindPlan[V, R, P]
	fill  func(res *Result, p P, agg R) // sets the kind's Result fields
	parts []P
}

func newState[V, R any, P partial[V]](k kindPlan[V, R, P], fill func(*Result, P, R)) *kindState[V, R, P] {
	return &kindState[V, R, P]{plan: k, fill: fill}
}

func (s *kindState[V, R, P]) fp() string { return s.plan.fp() }
func (s *kindState[V, R, P]) size() int  { return s.plan.size() }

func (s *kindState[V, R, P]) run(ctx context.Context, r *Runner, shard ShardSpec) (wirePart, Result, error) {
	if err := r.validate(); err != nil {
		return nil, Result{}, err
	}
	if err := shard.Validate(); err != nil {
		return nil, Result{}, err
	}
	if shard.IsZero() {
		shard = ShardSpec{Index: 0, Count: 1}
	}
	lo, hi := shard.shardRange(s.size())
	start := time.Now()
	vals, err := s.plan.exec(ctx, r, lo, hi)
	if err != nil && !cancelled(ctx, err) {
		return nil, Result{}, err
	}
	p := s.plan.wrap(partHead{fingerprint: s.fp(), shard: shard, lo: lo, hi: lo + len(vals), total: s.size(),
		elapsedMS: time.Since(start).Milliseconds()}, vals)
	var agg R
	if err == nil && lo == 0 && len(vals) == s.size() {
		agg = s.plan.aggregate(vals)
	}
	var res Result
	s.fill(&res, p, agg)
	return p, res, err
}

func (s *kindState[V, R, P]) decode(payload []byte) (wirePart, error) {
	p, err := s.plan.decode(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (s *kindState[V, R, P]) add(p wirePart) error {
	tp, ok := p.(P)
	if !ok {
		return fmt.Errorf("harness: a %T cannot merge into a plan of %T partials", p, tp)
	}
	s.parts = append(s.parts, tp)
	return nil
}

func (s *kindState[V, R, P]) replay(rp *journal.Replay) error {
	if rp == nil {
		return nil
	}
	for _, rec := range rp.Plan(s.fp()) {
		// The journal's checksum proved the payload is the bytes that were
		// appended; these checks prove those bytes mean what the envelope
		// says, so nothing merges on the strength of metadata alone.
		p, err := s.plan.decode(bytes.NewReader(rec.Payload))
		if err != nil {
			return fmt.Errorf("%w: journaled payload for trials [%d, %d): %v", journal.ErrCorrupt, rec.Lo, rec.Hi, err)
		}
		h := p.head()
		if h.fingerprint != s.fp() {
			return fmt.Errorf("%w: journaled payload for trials [%d, %d) was cut from plan %.12s, record claims %.12s",
				journal.ErrCorrupt, rec.Lo, rec.Hi, h.fingerprint, s.fp())
		}
		if h.lo != rec.Lo || h.hi != rec.Hi || h.total != rec.Total || h.total != s.size() {
			return fmt.Errorf("%w: journaled payload covers [%d, %d) of %d, record claims [%d, %d) of %d",
				journal.ErrCorrupt, h.lo, h.hi, h.total, rec.Lo, rec.Hi, rec.Total)
		}
		s.parts = append(s.parts, p)
	}
	return nil
}

// sorted returns the collected partials in range order.
func (s *kindState[V, R, P]) sorted() []P {
	parts := append([]P(nil), s.parts...)
	sort.SliceStable(parts, func(a, b int) bool { return parts[a].head().lo < parts[b].head().lo })
	return parts
}

func (s *kindState[V, R, P]) covered() []partHead {
	heads := make([]partHead, len(s.parts))
	for i, p := range s.sorted() {
		heads[i] = p.head()
	}
	return heads
}

func (s *kindState[V, R, P]) merge(r *Runner, what string) (Result, error) {
	var nilP P
	heads := make([]partHead, len(s.parts))
	for i, p := range s.parts {
		if p == nilP {
			return Result{}, fmt.Errorf("harness: %s: nil partial result", what)
		}
		if err := p.check(); err != nil {
			return Result{}, err
		}
		heads[i] = p.head()
	}
	order, err := tileSpans(what, s.fp(), s.size(), heads)
	if err != nil {
		return Result{}, err
	}
	vals := make([]V, s.size())
	for _, i := range order {
		copy(vals[heads[i].lo:heads[i].hi], s.parts[i].values())
		r.notify(heads[i].merged())
	}
	var res Result
	s.fill(&res, nilP, s.plan.aggregate(vals))
	return res, nil
}

func (s *kindState[V, R, P]) snapshot() Result {
	vals := make([]V, s.size())
	for _, p := range s.parts {
		h := p.head()
		copy(vals[h.lo:h.hi], p.values())
	}
	var res Result
	var nilP P
	s.fill(&res, nilP, s.plan.aggregate(vals))
	return res
}

func (s *kindState[V, R, P]) payloads() ([][]byte, error) {
	out := make([][]byte, len(s.parts))
	for i, p := range s.sorted() {
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// plan normalizes a single-plan Spec, applies its declarative fields to
// the Runner, and plans it — the one place a Spec's kind selects a plan
// type. A non-empty kind additionally requires that kind; what names the
// caller in errors.
func (r *Runner) plan(spec Spec, kind SpecKind, what string) (planState, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	if kind != "" && n.Kind != kind {
		return nil, fmt.Errorf("harness: %s needs a %s spec, got kind %q", what, kind, n.Kind)
	}
	if n.Kind == SpecExperiment {
		return nil, fmt.Errorf("harness: %s: %s specs run several plans; plan their campaigns/measurements individually", what, n.Kind)
	}
	r.applySpec(n)
	switch n.Kind {
	case SpecCampaign:
		p, err := r.planCampaign(n)
		if err != nil {
			return nil, err
		}
		return newState(p, func(res *Result, p *PartialResult, agg *CampaignResult) {
			res.CampaignPartial, res.Campaign = p, agg
		}), nil
	case SpecOverhead:
		p, err := planOverhead(n)
		if err != nil {
			return nil, err
		}
		return newState(p, func(res *Result, p *OverheadPartial, agg *OverheadResult) {
			res.OverheadPartial, res.Overhead = p, agg
		}), nil
	default: // SpecConcurrent
		p, err := planConcurrent(n)
		if err != nil {
			return nil, err
		}
		return newState(p, func(res *Result, p *PartialResult, agg *ConcurrentResult) {
			res.ConcurrentPartial, res.Concurrent = p, agg
		}), nil
	}
}

// runWhole executes the entire plan of a kind-checked Spec and returns
// its aggregate in the kind's Result field. A Runner configured with a
// proper shard is refused rather than silently truncated, and a
// cancelled run returns only ctx's error.
func (r *Runner) runWhole(ctx context.Context, spec Spec, kind SpecKind, what string) (Result, error) {
	if _, err := spec.normalizedAs(kind, what); err != nil {
		return Result{}, err
	}
	if err := r.validate(); err != nil {
		return Result{}, err
	}
	if !r.Shard.IsZero() && r.Shard != (ShardSpec{Index: 0, Count: 1}) {
		return Result{}, fmt.Errorf("harness: %s with Shard %s: a shard covers only part of the plan; run shards (RunCampaignPartial, WithShard, ShardPayload) and Merge them", what, r.Shard)
	}
	st, err := r.plan(spec, kind, what)
	if err != nil {
		return Result{}, err
	}
	_, res, err := st.run(ctx, r, ShardSpec{})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// mergeParts merges typed partials of the Spec's kind — the path
// MergeCampaign and GenerateMerged share.
func mergeParts[P wirePart](r *Runner, spec Spec, kind SpecKind, what string, parts []P) (Result, error) {
	st, err := r.plan(spec, kind, what)
	if err != nil {
		return Result{}, err
	}
	for _, p := range parts {
		if err := st.add(p); err != nil {
			return Result{}, err
		}
	}
	return st.merge(r, what)
}

// Merge reassembles a full result from the serialized partials of a
// sharded campaign, overhead, or concurrent run — partial files, the
// payloads a coordinator fleet or a dpmrd daemon returns. The Spec must
// reproduce the plan the shards were cut from; the plan fingerprint
// enforces this. Partials may arrive in any order, but their ranges must
// tile the plan exactly: overlapping ranges (a duplicated shard) and gaps
// (a missing shard) are refused with the offending trial range named.
// The aggregate lands in the kind's Result field, byte-identical to an
// unsharded run; one ShardMerged event is emitted per partial, in
// canonical range order.
func (r *Runner) Merge(spec Spec, payloads [][]byte) (Result, error) {
	st, err := r.plan(spec, "", "Merge")
	if err != nil {
		return Result{}, err
	}
	for i, payload := range payloads {
		p, err := st.decode(payload)
		if err != nil {
			return Result{}, fmt.Errorf("shard %d: %w", i, err)
		}
		if err := st.add(p); err != nil {
			return Result{}, err
		}
	}
	return st.merge(r, "Merge")
}

// ShardPayload executes one shard of any Spec kind and returns its
// serialized partial result — the JSON document the coordinator's
// streaming protocol carries: a PartialResult for campaign and
// concurrent Specs, an OverheadPartial for overhead Specs, an
// ExperimentPartial for experiment Specs. It is the one worker-side entry
// point behind `dpmr-exp -worker` and `dpmr-run -worker`, which is why a
// worker process serves whatever Spec its Assignment carries instead of
// re-deriving an experiment from argv. A cancelled ctx fails the shard:
// the coordinator must retry it, not merge a prefix as if it covered the
// range.
func ShardPayload(ctx context.Context, spec Spec, shard ShardSpec, opts Options) ([]byte, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if n.Kind == SpecExperiment {
		if err := GenerateSharded(ctx, n, shard, &buf, opts); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	r := opts.runner()
	st, err := r.plan(n, "", "ShardPayload")
	if err != nil {
		return nil, err
	}
	p, _, err := st.run(ctx, r, shard)
	if err != nil {
		return nil, err
	}
	if err := p.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PlanTrials reports the trial count of the Spec's canonical flat plan —
// the unit sharding and the coordinator schedule over. Campaign,
// overhead, and concurrent Specs all plan; experiment Specs run several
// plans and are refused.
func (r *Runner) PlanTrials(spec Spec) (int, error) {
	st, err := r.plan(spec, "", "PlanTrials")
	if err != nil {
		return 0, err
	}
	return st.size(), nil
}

// tileSpans validates a set of partial headers against a plan identity
// (fingerprint + trial count) and returns the indices ordered so their
// ranges tile [0, total) exactly. Mismatched fingerprints, overlapping
// ranges (a duplicated shard), and gaps (a missing shard) are rejected
// with the offending shard or trial range named; what names the calling
// merge in errors.
func tileSpans(what, fingerprint string, total int, spans []partHead) ([]int, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("harness: %s: no partial results", what)
	}
	for _, s := range spans {
		if s.fingerprint != fingerprint {
			return nil, fmt.Errorf("harness: %s: shard %s was cut from a different plan (fingerprint %.12s, want %.12s): spec, runs, or site enumeration differ",
				what, s.shard, s.fingerprint, fingerprint)
		}
		if s.total != total {
			return nil, fmt.Errorf("harness: %s: shard %s covers a %d-trial plan, this plan has %d trials", what, s.shard, s.total, total)
		}
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if spans[order[a]].lo != spans[order[b]].lo {
			return spans[order[a]].lo < spans[order[b]].lo
		}
		return spans[order[a]].hi < spans[order[b]].hi
	})
	next := 0
	for _, i := range order {
		s := spans[i]
		if s.lo < next {
			return nil, fmt.Errorf("harness: %s: shard %s overlaps already-merged trials [%d, %d): duplicate shard?", what, s.shard, s.lo, min(s.hi, next))
		}
		if s.lo > next {
			return nil, fmt.Errorf("harness: %s: missing trials [%d, %d): no shard covers them", what, next, s.lo)
		}
		next = s.hi
	}
	if next != total {
		return nil, fmt.Errorf("harness: %s: missing trials [%d, %d): no shard covers them", what, next, total)
	}
	return order, nil
}

// ---------------------------------------------------------------------------
// Journaled execution

// Resume is a single-plan Spec's canonical plan diffed against a journal
// replay: which trial ranges are already covered and which still need to
// run (Gaps). Partials appended afterwards join the covered set, so
// Snapshot and Merge always see everything collected so far.
type Resume struct {
	r  *Runner
	st planState
	// PlanFP is the canonical plan's fingerprint — the key shard records
	// are journaled under.
	PlanFP string
	// Total is the plan's trial count.
	Total int
	// Gaps are the trial ranges the replay left uncovered, as explicit
	// span ShardSpecs in ascending order. Empty means the journal already
	// covers the plan.
	Gaps []ShardSpec
}

// Resume recomputes the Spec's canonical plan (campaign, overhead, or
// concurrent) and diffs it against the journal replay: records journaled
// under this plan's fingerprint are decoded and re-validated (payload
// shape, fingerprint, and the record's range against the payload's — a
// mismatch means the journal was tampered with past its checksums and is
// refused as corrupt); everything the records do not cover becomes a
// gap. rp may be nil (a fresh journal): every trial is then a gap.
func (r *Runner) Resume(spec Spec, rp *journal.Replay) (*Resume, error) {
	if err := failpt.Err(siteResume); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	st, err := r.plan(spec, "", "Resume")
	if err != nil {
		return nil, err
	}
	if err := st.replay(rp); err != nil {
		return nil, err
	}
	gaps, err := rangeGaps(st.covered(), st.size())
	if err != nil {
		return nil, err
	}
	return &Resume{r: r, st: st, PlanFP: st.fp(), Total: st.size(), Gaps: gaps}, nil
}

// Done reports how many trials the collected partials cover.
func (c *Resume) Done() int {
	done := 0
	for _, h := range c.st.covered() {
		done += h.hi - h.lo
	}
	return done
}

// Covered returns one ShardMerged event per collected partial, in range
// order — what a service announces for replayed coverage.
func (c *Resume) Covered() []ShardMerged {
	heads := c.st.covered()
	evs := make([]ShardMerged, len(heads))
	for i, h := range heads {
		evs[i] = h.merged()
	}
	return evs
}

// Spans cuts the gaps into at most n explicit spans (at least one per
// gap), sized adaptively from the journal's observed per-trial cost: a
// trial in a region the journal measured as slow gets a smaller span, so
// interruptions near stragglers waste less completed work and the
// coordinator's lease scheduler sees evener span durations. The cut is
// deterministic — a pure function of the replayed records and the Spec —
// which is what makes a resumed plan reproducible: re-planning the same
// journal yields byte-identical spans at any worker count.
func (c *Resume) Spans(n int) []ShardSpec {
	return adaptiveSpans(n, c.Gaps, observedRates(c.st.covered(), c.Total))
}

// Append journals one serialized partial of this plan — a shard result
// from a coordinator fleet — and collects it. The payload's own
// fingerprint and range become the record envelope, so the journal's
// overlap guard sees the true trial span. It returns the trial count the
// partial covers.
func (c *Resume) Append(j *journal.Journal, payload []byte) (int, error) {
	p, err := c.st.decode(payload)
	if err != nil {
		return 0, err
	}
	return c.append(j, p, payload)
}

func (c *Resume) append(j *journal.Journal, p wirePart, payload []byte) (int, error) {
	h := p.head()
	if err := j.Append(journal.Record{
		PlanFP: h.fingerprint, Lo: h.lo, Hi: h.hi, Total: h.total,
		ElapsedMS: h.elapsedMS, Payload: payload,
	}); err != nil {
		return 0, err
	}
	return h.hi - h.lo, c.st.add(p)
}

// Snapshot aggregates the collected partials over zero-valued stand-ins
// for the uncovered trials — a structurally complete result in the
// kind's Result field, the data a progressive report renders.
func (c *Resume) Snapshot() Result { return c.st.snapshot() }

// Merge aggregates the collected partials, which must tile the plan
// exactly, into a result byte-identical to an uninterrupted run.
func (c *Resume) Merge() (Result, error) { return c.st.merge(c.r, "Merge") }

// Payloads serializes every collected partial in range order — the
// payload set a service returns for a client-side merge.
func (c *Resume) Payloads() ([][]byte, error) { return c.st.payloads() }

// RunJournaled executes a campaign, overhead, or concurrent Spec against
// a journal: replayed coverage is kept, the remaining gaps are cut
// adaptively into spans, each span's completed partial is appended
// (durably) to the journal before the next span starts, and the full set
// merges into a final result byte-identical to an uninterrupted run.
// snap, when non-nil, receives a progressive snapshot after replay and
// after every completed span — a structurally complete result whose
// uncovered trials are zero-valued stand-ins, plus the covered/total
// trial counts. The returned int counts trials executed by this call
// (not replayed); on cancellation the completed prefix of the in-flight
// span is journaled before the context error returns.
func (r *Runner) RunJournaled(ctx context.Context, spec Spec, j *journal.Journal, prior *journal.Replay, spans int,
	snap func(res Result, done, total int)) (Result, int, error) {
	var onSpan func(*Resume)
	if snap != nil {
		onSpan = func(c *Resume) { snap(c.Snapshot(), c.Done(), c.Total) }
	}
	return r.runJournaled(ctx, spec, j, prior, spans, onSpan)
}

// runJournaled is RunJournaled with the snapshot left to the caller:
// onSpan fires with the resume state after replay and after every
// completed span.
func (r *Runner) runJournaled(ctx context.Context, spec Spec, j *journal.Journal, prior *journal.Replay, spans int,
	onSpan func(*Resume)) (Result, int, error) {
	c, err := r.Resume(spec, prior)
	if err != nil {
		return Result{}, 0, err
	}
	if onSpan != nil {
		onSpan(c)
	}
	executed := 0
	for _, span := range c.Spans(spans) {
		if err := failpt.Err(siteSpan); err != nil {
			return Result{}, executed, err
		}
		p, _, err := c.st.run(ctx, r, span)
		if err != nil && (p == nil || !cancelled(ctx, err)) {
			return Result{}, executed, err
		}
		if h := p.head(); h.hi > h.lo {
			var payload bytes.Buffer
			if err := p.Encode(&payload); err != nil {
				return Result{}, executed, err
			}
			n, aerr := c.append(j, p, payload.Bytes())
			if aerr != nil {
				return Result{}, executed, aerr
			}
			executed += n
			if onSpan != nil {
				onSpan(c)
			}
		}
		if err != nil {
			return Result{}, executed, err
		}
	}
	res, err := c.Merge()
	return res, executed, err
}
