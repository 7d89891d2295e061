package harness

// Overhead experiments (no injections), with the same plan/partial/merge
// treatment as injection campaigns: the canonical flat measurement plan —
// per workload, its golden (stdapp) run followed by one run per DPMR
// variant — is a pure function of the normalized overhead Spec, so any
// process can recompute it and claim a contiguous slice. Shard i of N
// measures trials [i·T/N, (i+1)·T/N) and emits an OverheadPartial (cycle
// counts plus the plan fingerprint); Merge validates the tiling and
// aggregates in canonical order, so the merged OverheadResult — and any
// report rendered from it — is byte-identical to an unsharded run.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"dpmr/internal/extlib"
	"dpmr/internal/interp"
	"dpmr/internal/workloads"
)

// OverheadResult maps variant label → workload → overhead (×golden,
// Equation 3.1).
type OverheadResult struct {
	Workloads []string
	Variants  []Variant
	Ratio     map[string]map[string]float64
	// Cycles carries the raw per-variant cycles for benches.
	Cycles map[string]map[string]uint64
}

// overheadTrial is one measurement of an overhead plan: the golden
// (stdapp) run of a workload, or one DPMR variant run of it.
type overheadTrial struct {
	w workloads.Workload
	v Variant // v.DPMR == false ⇒ the workload's golden run
}

// overheadPlan is the canonical flat measurement layout of an overhead
// experiment. Like campaignPlan it is a pure function of its normalized
// Spec, so contiguous index ranges are a host-independent sharding unit
// and the fingerprint lets Merge refuse partials cut from a different
// plan.
type overheadPlan struct {
	cycleWire
	workloads   []string
	variants    []Variant
	trials      []overheadTrial
	goldenIdx   []int // per workload: index of its golden trial
	fingerprint string
}

// planOverhead lays the measurement grid out flat in canonical order
// from the normalized overhead Spec: for each workload, its golden run,
// then one trial per DPMR variant in variant order (non-DPMR variants
// reuse the golden measurement).
func planOverhead(spec Spec) (*overheadPlan, error) {
	ws, err := spec.resolveWorkloads()
	if err != nil {
		return nil, err
	}
	variants, err := spec.resolveVariants()
	if err != nil {
		return nil, err
	}
	canon, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	p := &overheadPlan{variants: variants}
	h := sha256.New()
	fmt.Fprintf(h, "dpmr overhead plan v2\nspec %s\n", canon)
	for _, w := range ws {
		p.workloads = append(p.workloads, w.Name)
		p.goldenIdx = append(p.goldenIdx, len(p.trials))
		p.trials = append(p.trials, overheadTrial{w: w, v: Stdapp()})
		for _, v := range variants {
			if v.DPMR {
				p.trials = append(p.trials, overheadTrial{w: w, v: v})
			}
		}
	}
	fmt.Fprintf(h, "trials %d\n", len(p.trials))
	p.fingerprint = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

func (plan *overheadPlan) fp() string { return plan.fingerprint }
func (plan *overheadPlan) size() int  { return len(plan.trials) }

// exec measures trials [lo, hi) on the worker pool and returns their
// cycle counts, failing with the canonical naming of the first errored
// trial. Golden measurements go through the Runner's memoized golden
// cache, so a workload's golden executes once no matter how many ratios
// (or shards on this Runner) need it. When ctx is cancelled mid-range,
// the completed prefix of measurements is returned together with
// ctx.Err() (see campaignPlan.exec).
func (plan *overheadPlan) exec(ctx context.Context, r *Runner, lo, hi int) ([]uint64, error) {
	cycles := make([]uint64, hi-lo)
	errs := make([]error, hi-lo)
	pool := r.spaces()
	done := r.fanOut(ctx, hi-lo, func(i int) {
		t := plan.trials[lo+i]
		if !t.v.DPMR {
			g, err := r.Golden(t.w)
			if err != nil {
				errs[i] = err
				return
			}
			cycles[i] = g.Cycles
			return
		}
		m, prog, err := r.module(t.w, t.v, nil)
		if err != nil {
			errs[i] = err
			return
		}
		res := interp.Run(m, interp.Config{
			Externs:   extlib.Wrapped(t.v.Design),
			Mem:       r.MemConfig,
			Seed:      1,
			Prog:      prog,
			SpacePool: pool,
		})
		if res.Kind != interp.ExitNormal {
			errs[i] = fmt.Errorf("%v (%s)", res.Kind, res.Reason)
			return
		}
		cycles[i] = res.Cycles
	})
	for i := 0; i < done; i++ {
		if err := errs[i]; err != nil {
			t := plan.trials[lo+i]
			return nil, fmt.Errorf("overhead trial %d: %s/%s: %w", lo+i, t.w.Name, t.v.Label(), err)
		}
	}
	if done < hi-lo {
		return cycles[:done], context.Cause(ctx)
	}
	return cycles, nil
}

// aggregate folds the full plan's cycle measurements into an
// OverheadResult in canonical order — identical iteration (and float
// division) whether the cycles came from one process or merged shards.
func (plan *overheadPlan) aggregate(cycles []uint64) *OverheadResult {
	or := &OverheadResult{
		Workloads: plan.workloads,
		Variants:  plan.variants,
		Ratio:     make(map[string]map[string]float64),
		Cycles:    make(map[string]map[string]uint64),
	}
	for _, v := range plan.variants {
		or.Ratio[v.Label()] = make(map[string]float64)
		or.Cycles[v.Label()] = make(map[string]uint64)
	}
	for wi, wname := range plan.workloads {
		golden := cycles[plan.goldenIdx[wi]]
		ti := plan.goldenIdx[wi] + 1
		for _, v := range plan.variants {
			if !v.DPMR {
				or.Ratio[v.Label()][wname] = 1.0
				or.Cycles[v.Label()][wname] = golden
				continue
			}
			or.Ratio[v.Label()][wname] = float64(cycles[ti]) / float64(golden)
			or.Cycles[v.Label()][wname] = cycles[ti]
			ti++
		}
	}
	return or
}

// RunOverhead measures execution-time overhead for each variant of the
// overhead Spec. Like RunCampaign, the measurement grid executes on the
// worker pool and results are recorded in canonical grid order;
// cancelling ctx stops dispatch, drains in-flight measurements, and
// returns ctx's error. A Runner configured with a proper shard is
// refused: shard with a Session (WithShard) or ShardPayload, then Merge.
func (r *Runner) RunOverhead(ctx context.Context, spec Spec) (*OverheadResult, error) {
	res, err := r.runWhole(ctx, spec, SpecOverhead, "RunOverhead")
	return res.Overhead, err
}

// OverheadPartial is one shard's output of a sharded overhead
// experiment: the cycle measurements of the contiguous trial range
// [Lo, Hi) of an overhead plan identified by Fingerprint. It serializes
// exactly like PartialResult, with cycle counts in place of outcomes.
type OverheadPartial struct {
	Fingerprint string    `json:"fingerprint"`
	Shard       ShardSpec `json:"shard"`
	Lo          int       `json:"lo"`
	Hi          int       `json:"hi"`
	Total       int       `json:"total"`
	// Cycles holds one entry per trial, Cycles[k] measuring canonical
	// trial Lo+k.
	Cycles []uint64 `json:"cycles"`
	// ElapsedMS is the shard's wall-clock execution time in milliseconds
	// (cost metadata only; merging ignores it).
	ElapsedMS int64 `json:"elapsedMS,omitempty"`
}

func (p *OverheadPartial) head() partHead {
	return partHead{fingerprint: p.Fingerprint, shard: p.Shard, lo: p.Lo, hi: p.Hi, total: p.Total, elapsedMS: p.ElapsedMS}
}

func (p *OverheadPartial) values() []uint64 { return p.Cycles }

// check validates the partial's internal shape (independent of any
// plan), so malformed input surfaces as an error, never a panic.
func (p *OverheadPartial) check() error { return p.head().check("overhead partial", len(p.Cycles)) }

// Encode writes the partial result as JSON.
func (p *OverheadPartial) Encode(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("harness: encoding overhead partial: %w", err)
	}
	return nil
}

// DecodeOverheadPartial reads a JSON overhead partial and validates its
// shape. It never panics on malformed input.
func DecodeOverheadPartial(r io.Reader) (*OverheadPartial, error) {
	return decodeChecked[OverheadPartial](r, "overhead partial")
}

// cycleWire is the wire codec of cycle-count spans — OverheadPartial —
// embedded by the overhead plan.
type cycleWire struct{}

func (cycleWire) wrap(h partHead, vals []uint64) *OverheadPartial {
	return &OverheadPartial{Fingerprint: h.fingerprint, Shard: h.shard, Lo: h.lo, Hi: h.hi, Total: h.total,
		Cycles: vals, ElapsedMS: h.elapsedMS}
}

func (cycleWire) decode(r io.Reader) (*OverheadPartial, error) { return DecodeOverheadPartial(r) }
