package harness

// Sharded campaign execution. A campaign's canonical flat trial plan is
// a pure function of its normalized Spec, so any process can recompute
// it and claim a contiguous slice: shard i of N runs trials
// [i·T/N, (i+1)·T/N). Each shard emits a PartialResult — the per-trial
// classifications of its range plus the plan fingerprint — and
// MergeCampaign reassembles the full outcome sequence, refusing
// mismatched fingerprints and overlapping or missing trial ranges, then
// aggregates in canonical order. The merged CampaignResult (and any
// report rendered from it) is byte-identical to an unsharded run.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ShardSpec names one shard of a campaign, in one of two forms. The
// fractional form — Index of Count — cuts the plan uniformly: shard i of
// N covers trials [i·T/N, (i+1)·T/N). The explicit form — Lo/Hi set,
// Index and Count zero — covers exactly the trial range [Lo, Hi); it is
// how adaptively cut resume plans name their uneven spans (see
// Resume.Spans). The zero value means "the whole plan".
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo, Hi delimit an explicit trial range [Lo, Hi). When Hi > Lo the
	// spec is an explicit span and Index/Count must be zero.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
}

// SpanShard names the explicit trial range [lo, hi) as a shard.
func SpanShard(lo, hi int) ShardSpec { return ShardSpec{Lo: lo, Hi: hi} }

// IsZero reports whether the spec is the unsharded zero value.
func (s ShardSpec) IsZero() bool { return s == ShardSpec{} }

// explicit reports whether the spec names an explicit trial range
// rather than a fractional Index/Count cut.
func (s ShardSpec) explicit() bool { return s.Lo != 0 || s.Hi != 0 }

// Explicit reports whether the spec names an explicit [Lo, Hi) trial
// span — the form journaled resumes cut — rather than a fractional
// Index/Count cut.
func (s ShardSpec) Explicit() bool { return s.explicit() }

// String renders the spec: the CLI's i/N form for fractional shards,
// [lo,hi) for explicit spans.
func (s ShardSpec) String() string {
	if s.explicit() {
		return fmt.Sprintf("[%d,%d)", s.Lo, s.Hi)
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Validate rejects fractional specs outside [0, Count), explicit spans
// with an empty or negative range, and mixtures of the two forms. The
// zero value is valid (unsharded).
func (s ShardSpec) Validate() error {
	if s.IsZero() {
		return nil
	}
	if s.explicit() {
		if s.Index != 0 || s.Count != 0 {
			return fmt.Errorf("harness: shard %s: explicit trial span cannot also set index/count %d/%d", s, s.Index, s.Count)
		}
		if s.Lo < 0 || s.Hi <= s.Lo {
			return fmt.Errorf("harness: shard: invalid explicit trial span [%d, %d)", s.Lo, s.Hi)
		}
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("harness: shard %s: count must be at least 1", s)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("harness: shard %s out of range: index must be in [0, %d)", s, s.Count)
	}
	return nil
}

// ParseShard parses the CLI "i/N" form into a validated ShardSpec.
func ParseShard(text string) (ShardSpec, error) {
	iText, nText, ok := strings.Cut(text, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("harness: shard %q: want i/N (e.g. 0/3)", text)
	}
	i, err := strconv.Atoi(strings.TrimSpace(iText))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("harness: shard %q: bad index: %v", text, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(nText))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("harness: shard %q: bad count: %v", text, err)
	}
	s := ShardSpec{Index: i, Count: n}
	if n < 1 {
		return ShardSpec{}, fmt.Errorf("harness: shard %s: count must be at least 1", s)
	}
	if err := s.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return s, nil
}

// PartialResult is one shard's output: the classifications of the
// contiguous trial range [Lo, Hi) of a campaign plan identified by
// Fingerprint. It is the serialization unit of sharded campaigns —
// JSON-encoded by the shard process, decoded and merged by the
// coordinator.
type PartialResult struct {
	// Fingerprint identifies the canonical plan this shard was cut from;
	// MergeCampaign refuses partials whose fingerprint differs from the
	// plan it recomputes locally.
	Fingerprint string    `json:"fingerprint"`
	Shard       ShardSpec `json:"shard"`
	// Lo, Hi delimit the shard's trial range [Lo, Hi) in the canonical
	// plan; Total is the plan's trial count.
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Total int `json:"total"`
	// Outcomes holds one entry per trial, Outcomes[k] classifying
	// canonical trial Lo+k.
	Outcomes []TrialOutcome `json:"outcomes"`
	// ElapsedMS is the shard's wall-clock execution time in milliseconds
	// — observed-cost metadata for the campaign journal and adaptive
	// shard sizing. It never participates in merging or fingerprints, so
	// merged reports stay byte-identical whatever the timings were.
	ElapsedMS int64 `json:"elapsedMS,omitempty"`
}

func (p *PartialResult) head() partHead {
	return partHead{fingerprint: p.Fingerprint, shard: p.Shard, lo: p.Lo, hi: p.Hi, total: p.Total, elapsedMS: p.ElapsedMS}
}

func (p *PartialResult) values() []TrialOutcome { return p.Outcomes }

// check validates the partial's internal shape (independent of any
// plan). Decoded partials are checked before use so malformed input
// surfaces as an error, never a panic.
func (p *PartialResult) check() error { return p.head().check("partial result", len(p.Outcomes)) }

// Encode writes the partial result as JSON.
func (p *PartialResult) Encode(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("harness: encoding partial result: %w", err)
	}
	return nil
}

// DecodePartial reads a JSON partial result and validates its shape. It
// never panics on malformed input.
func DecodePartial(r io.Reader) (*PartialResult, error) {
	return decodeChecked[PartialResult](r, "partial result")
}

// shardRange slices [0, total) into the spec's contiguous range.
// Fractional shards tile the plan exactly: shard i ends where shard i+1
// begins. Explicit spans cover their stated range, clamped to the plan.
func (s ShardSpec) shardRange(total int) (lo, hi int) {
	if s.explicit() {
		lo, hi = s.Lo, s.Hi
		if hi > total {
			hi = total
		}
		if lo > hi {
			lo = hi
		}
		return lo, hi
	}
	return s.Index * total / s.Count, (s.Index + 1) * total / s.Count
}

// outcomeWire is the wire codec of TrialOutcome spans — PartialResult —
// embedded by the campaign and concurrent plans.
type outcomeWire struct{}

func (outcomeWire) wrap(h partHead, vals []TrialOutcome) *PartialResult {
	return &PartialResult{Fingerprint: h.fingerprint, Shard: h.shard, Lo: h.lo, Hi: h.hi, Total: h.total,
		Outcomes: vals, ElapsedMS: h.elapsedMS}
}

func (outcomeWire) decode(r io.Reader) (*PartialResult, error) { return DecodePartial(r) }

// RunCampaignPartial executes only the Runner's shard of the campaign
// Spec's canonical trial plan and returns the indexed partial result. A
// zero Shard runs the whole plan as shard 0/1. Combine the shards with
// MergeCampaign (or Merge, from their serialized form).
//
// Cancelling ctx stops dispatch, drains in-flight trials, and returns
// the completed-prefix partial (Hi trimmed to the last finished trial)
// together with ctx's error — both non-nil — so a cancelled run's
// finished work is never discarded.
func (r *Runner) RunCampaignPartial(ctx context.Context, spec Spec) (*PartialResult, error) {
	st, err := r.plan(spec, SpecCampaign, "RunCampaignPartial")
	if err != nil {
		return nil, err
	}
	_, res, err := st.run(ctx, r, r.Shard)
	return res.CampaignPartial, err
}

// MergeCampaign reassembles a full CampaignResult from the partial
// results of a sharded run — Merge for partials already decoded. The
// Spec must reproduce the plan the shards were cut from (same workloads,
// variants, injection kind, runs, site enumeration); the plan
// fingerprint enforces this. Partials may arrive in any order, but their
// ranges must tile [0, total) exactly: overlapping ranges (e.g. a
// duplicated shard) and gaps (a missing shard) are rejected with the
// offending trial range named. The merged result is byte-identical to an
// unsharded run of the same Spec. One ShardMerged event is emitted per
// partial, in canonical range order.
func (r *Runner) MergeCampaign(spec Spec, parts []*PartialResult) (*CampaignResult, error) {
	res, err := mergeParts(r, spec, SpecCampaign, "MergeCampaign", parts)
	return res.Campaign, err
}
