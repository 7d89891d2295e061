// Package coord schedules the shards of a canonical experiment plan
// across a fleet of workers and collects their streamed partial results.
//
// The coordinator turns manual sharding (start N processes by hand, merge
// the files, hope none dies) into a supervised fleet: it cuts the plan
// into M shards (M ≥ worker count), leases each shard to a worker,
// reassigns a shard whose lease expires (straggler speculation) or whose
// worker dies (crash retry), and keeps the first-completed result per
// shard — deterministically safe, because every shard of a plan is a pure
// function of its range, so speculative duplicates are byte-identical.
// Results are opaque serialized partials (harness.PartialResult,
// harness.ExperimentPartial), so one scheduler drives single campaigns,
// whole experiments, and sharded overhead runs alike; the harness merge
// layer's fingerprint and gap/overlap validation stays in place
// downstream as the end-to-end safety net under the coordinator's
// bookkeeping. This metadata-light division of labor — tiny per-shard
// state, global consistency enforced at merge — follows the partial
// replication coordination regime of Xiang & Vaidya (2016, 2017).
//
// Workers are either in-process (Func: a fleet of goroutines) or spawned
// worker processes (Proc: `dpmr-exp -worker`, `dpmr-run -worker`)
// speaking the JSON-lines Assignment/Completion protocol over stdio;
// Serve is the worker side of that protocol.
package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dpmr/internal/failpt"
	"dpmr/internal/harness"
)

// Failpoint sites: the scheduler's own failure shapes, drillable by
// name. coord/dispatch misbehaves as the attempt starts (err = the
// worker crashed taking the assignment; stall = the attempt wedges
// long enough to blow its lease); coord/completion swallows a
// finished shard's first result, exercising the retry path a lost
// completion would take.
var (
	siteDispatch   = failpt.Register("coord/dispatch", failpt.KindErr, failpt.KindStall)
	siteCompletion = failpt.Register("coord/completion", failpt.KindDrop)
)

// ErrNoWorker marks a shard attempt that never reached a worker: a
// pooling Worker found none free within its checkout bound. The attempt
// counts toward MaxAttempts, so a fleet that stays empty ends the run
// with a named refusal, but it says nothing against the worker slot or
// the shard: the slot is not respawned and the failure does not count
// toward the poison threshold.
var ErrNoWorker = errors.New("coord: no worker free")

// PoisonShardError is the named refusal for a poison shard: one whose
// attempts failed on PoisonK distinct worker incarnations. The shard
// is isolated (the run stops retrying it) and the refusal names it,
// because a shard that kills every worker it touches is a defect in
// the plan or the workload, not transient bad luck — retrying forever
// would grind the fleet down worker by worker.
type PoisonShardError struct {
	Shard, Of   int   // shard index, total shards
	Workers     int   // distinct worker incarnations it failed
	Attempts    int   // dispatches consumed
	LastFailure error // the final attempt's error
}

func (e *PoisonShardError) Error() string {
	return fmt.Sprintf("coord: shard %d/%d is poison: failed %d distinct workers in %d attempts, isolating it; last failure: %v",
		e.Shard, e.Of, e.Workers, e.Attempts, e.LastFailure)
}

func (e *PoisonShardError) Unwrap() error { return e.LastFailure }

// chaosKillDelay is how long after its first dispatch a chaos-targeted
// worker is killed: long enough for the assignment to reach the process
// and the shard to start, short enough to land mid-run on any real shard.
// Every interleaving (kill before, during, or after the shard completes)
// is safe — retry plus first-result-wins keeps the output identical.
const chaosKillDelay = 25 * time.Millisecond

// Worker executes shard assignments for a Coordinator.
type Worker interface {
	// Run executes one shard of the Spec's canonical plan and returns
	// the shard's serialized partial result. Run is called serially per
	// worker; an error means this attempt is lost (the coordinator
	// reassigns the shard and replaces the worker).
	Run(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error)
	// Close releases the worker. For process-backed workers it kills the
	// process; Close may be called concurrently with Run (failing the
	// in-flight attempt) and more than once.
	Close() error
}

// Func adapts an in-process function to a Worker — the goroutine fleet.
// The function must be safe for concurrent calls: the same Func may back
// several fleet slots at once.
type Func func(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error)

// Run implements Worker.
func (f Func) Run(ctx context.Context, spec harness.Spec, shard harness.ShardSpec) ([]byte, error) {
	return f(ctx, spec, shard)
}

// Close implements Worker; an in-process worker holds nothing.
func (Func) Close() error { return nil }

// Config parameterizes a Coordinator.
type Config struct {
	// Spec is the declarative experiment description every assignment
	// carries; workers recompute the identical plan (and fingerprint)
	// from it rather than re-deriving state from their argv.
	Spec harness.Spec
	// Shards is M, the number of contiguous plan slices to schedule.
	// More shards than workers (M ≥ Workers is enforced) keeps the fleet
	// busy when shards finish unevenly and bounds the work lost to a
	// crash or straggler at 1/M of the plan.
	Shards int
	// Spans, when non-nil, replaces the uniform Index/Count cut with an
	// explicit span list: shard i executes trial range Spans[i]. This is
	// how a journaled resume leases exactly its uncovered ranges, sized
	// adaptively from the journal's observed per-shard wall-clock so the
	// lease scheduler sees evener attempt durations. Shards must be 0 or
	// len(Spans), and the M ≥ Workers rule is waived — a nearly complete
	// journal can leave fewer gaps than the fleet has workers.
	Spans []harness.ShardSpec
	// Workers is the fleet size.
	Workers int
	// Lease bounds how long one shard assignment may run before the
	// coordinator speculatively reassigns it to another worker (the
	// original attempt keeps running; the first completion wins).
	// 0 disables lease expiry.
	Lease time.Duration
	// MaxAttempts caps dispatches per shard, counting speculative
	// reassignments; 0 means the default of 3.
	MaxAttempts int
	// PoisonK is the poison-shard threshold: a shard whose attempts
	// fail on this many distinct worker incarnations is isolated and
	// the run refuses with a named PoisonShardError instead of
	// retrying further. 0 means the default of 3; it cannot exceed
	// MaxAttempts meaningfully (attempts exhaust first).
	PoisonK int
	// Quarantine is the base backoff before respawning a worker slot
	// whose attempt died on a transport error. Repeated deaths double
	// it (capped at 5s) with jitter — the circuit breaker that stops a
	// persistent fault from hot-looping respawns. 0 means the 50ms
	// default; negative disables quarantine entirely.
	Quarantine time.Duration
	// Spawn constructs the worker for fleet slot id, both for the
	// initial fleet and to replace a worker whose attempt failed. It
	// must be safe for concurrent use.
	Spawn func(id int) (Worker, error)
	// Chaos is a fault drill for the retry path: this many workers are
	// hard-killed (Worker.Close) shortly after their first assignment.
	// Workers whose Close releases nothing (Func) are unaffected.
	Chaos int
	// OnResult, when non-nil, observes each shard's first completed
	// payload from inside the scheduling loop, before the shard is
	// marked done — the journaling hook. Duplicate (speculative)
	// completions are never delivered. An error aborts the run: a
	// journaled resume must not race past a payload it failed to make
	// durable.
	OnResult func(shard int, payload []byte) error
	// Log, when non-nil, receives scheduling diagnostics (dispatches,
	// retries, lease expiries, kills). Calls are serialized.
	Log func(format string, args ...any)
}

// Coordinator schedules shards onto a worker fleet. Construct with New;
// a Coordinator is single-use (one Run).
type Coordinator struct {
	cfg   Config
	logMu sync.Mutex // serializes Log across the loop and worker goroutines
}

// New validates the configuration and returns a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("coord: %d workers: the fleet needs at least 1", cfg.Workers)
	}
	if len(cfg.Spans) > 0 {
		if cfg.Shards != 0 && cfg.Shards != len(cfg.Spans) {
			return nil, fmt.Errorf("coord: %d shards but %d explicit spans", cfg.Shards, len(cfg.Spans))
		}
		cfg.Shards = len(cfg.Spans)
		for i, s := range cfg.Spans {
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("coord: span %d: %w", i, err)
			}
			if !s.Explicit() {
				return nil, fmt.Errorf("coord: span %d (%s): explicit [lo,hi) trial spans only", i, s)
			}
		}
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("coord: %d shards: the plan needs at least 1 slice", cfg.Shards)
	}
	if cfg.Shards < cfg.Workers && cfg.Spans == nil {
		return nil, fmt.Errorf("coord: %d shards for %d workers: cut the plan at least as fine as the fleet", cfg.Shards, cfg.Workers)
	}
	if cfg.Lease < 0 {
		return nil, fmt.Errorf("coord: negative lease %v", cfg.Lease)
	}
	if cfg.MaxAttempts < 0 {
		return nil, fmt.Errorf("coord: negative MaxAttempts %d", cfg.MaxAttempts)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.PoisonK < 0 {
		return nil, fmt.Errorf("coord: negative PoisonK %d", cfg.PoisonK)
	}
	if cfg.PoisonK == 0 {
		cfg.PoisonK = 3
	}
	if cfg.Quarantine == 0 {
		cfg.Quarantine = DefaultQuarantine
	}
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("coord: no Spawn factory")
	}
	return &Coordinator{cfg: cfg}, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log == nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	c.cfg.Log(format, args...)
}

// completion is one attempt's outcome, posted by a worker goroutine.
type completion struct {
	shard   int
	worker  int // worker incarnation that ran the attempt, for poison tracking
	payload []byte
	err     error
}

// FleetOptions is the CLI-shaped fleet description dpmr-exp and dpmr-run
// share: the Spec to schedule, how many workers and shards, the
// straggler lease, and whether workers are in-process or spawned
// processes.
type FleetOptions struct {
	// Spec is the declarative experiment description carried by every
	// shard assignment (see Config.Spec).
	Spec harness.Spec
	// Workers is the fleet size; Shards defaults to 2×Workers when 0.
	Workers, Shards int
	// Spans, when non-nil, leases these explicit trial spans instead of
	// the uniform Shards-way cut (see Config.Spans); Shards is ignored.
	Spans []harness.ShardSpec
	// OnResult observes each shard's first completed payload before it
	// is marked done (see Config.OnResult).
	OnResult func(shard int, payload []byte) error
	// Lease is the straggler lease (see Config.Lease).
	Lease time.Duration
	// SpawnArgv, when non-nil, runs workers as spawned processes of this
	// executable re-invoked with these arguments; nil runs Local
	// goroutine workers instead.
	SpawnArgv []string
	// Stderr receives spawned workers' diagnostics (nil = os.Stderr).
	Stderr io.Writer
	// Chaos is the fault drill (see Config.Chaos).
	Chaos int
	// Local is the in-process worker used when SpawnArgv is nil.
	Local Func
	// Log receives scheduling diagnostics (see Config.Log).
	Log func(format string, args ...any)
}

// RunFleet is the one-call fleet path behind the CLIs' -coord flags:
// build the Coordinator from CLI-shaped options, run it, and return the
// payloads in shard order. Keeping the defaults (shard count, process
// re-exec) here means the two binaries cannot drift apart.
func RunFleet(ctx context.Context, o FleetOptions) ([][]byte, error) {
	shards := o.Shards
	if o.Spans != nil {
		shards = len(o.Spans)
	} else if shards == 0 {
		shards = 2 * o.Workers
	}
	var spawn func(id int) (Worker, error)
	if o.SpawnArgv != nil {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("coord: resolving worker executable: %w", err)
		}
		spawn = func(int) (Worker, error) { return NewProc(o.Stderr, exe, o.SpawnArgv...) }
	} else {
		if o.Local == nil {
			return nil, fmt.Errorf("coord: RunFleet without SpawnArgv needs a Local worker")
		}
		spawn = func(int) (Worker, error) { return o.Local, nil }
	}
	co, err := New(Config{
		Spec: o.Spec, Shards: shards, Workers: o.Workers, Lease: o.Lease,
		Spans: o.Spans, OnResult: o.OnResult,
		Spawn: spawn, Chaos: o.Chaos, Log: o.Log,
	})
	if err != nil {
		return nil, err
	}
	return co.Run(ctx)
}

// Run executes the fleet until every shard has a result and returns the
// payloads indexed by shard — the deterministic merge order, independent
// of completion order. It fails if a shard exhausts MaxAttempts (its
// attempts all erroring, or — with a Lease set — all outliving their
// leases, i.e. a wedged shard) or if the whole fleet dies and cannot be
// respawned; duplicated work from speculative retries is discarded
// (first completion wins), and the caller's merge layer re-validates the
// tiling regardless.
func (c *Coordinator) Run(ctx context.Context) ([][]byte, error) {
	cfg := c.cfg
	ctx, cancel := context.WithCancel(ctx)
	m := cfg.Shards

	assignCh := make(chan int)
	events := make(chan completion)
	expiries := make(chan int)
	retired := make(chan int)
	loopDone := make(chan struct{})

	chaos := int64(cfg.Chaos)
	var spawnSeq int64 // worker incarnations: a respawn is a new worker
	quarBase := cfg.Quarantine
	if quarBase < 0 {
		quarBase = 0
	}
	var wg sync.WaitGroup

	// shutdown stops the fleet: stray timers and posts unblock on
	// loopDone, in-flight attempts that honor ctx are cancelled (Proc
	// kills its process), and the assignment channel closing ends each
	// worker loop.
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			close(loopDone)
			cancel()
			close(assignCh)
		})
	}
	defer func() {
		shutdown()
		wg.Wait()
	}()

	worker := func(id, wid int, w Worker) {
		defer wg.Done()
		defer func() { _ = w.Close() }()
		br := NewBreaker(quarBase)
		post := func(ev completion) {
			select {
			case events <- ev:
			case <-loopDone:
			}
		}
		first := true
		for shard := range assignCh {
			if first && atomic.AddInt64(&chaos, -1) >= 0 {
				c.logf("worker %d: chaos kill armed", id)
				w := w
				time.AfterFunc(chaosKillDelay, func() { _ = w.Close() })
			}
			first = false
			assignment := harness.ShardSpec{Index: shard, Count: m}
			if cfg.Spans != nil {
				assignment = cfg.Spans[shard]
			}
			var payload []byte
			var err error
			if act := failpt.Eval(siteDispatch); act != nil {
				act.Sleep() // a stalled dispatch outlives its lease
				err = act.Err()
			}
			if err == nil {
				payload, err = w.Run(ctx, cfg.Spec, assignment)
			}
			post(completion{shard: shard, worker: wid, payload: payload, err: err})
			if err == nil {
				br.OK()
				continue
			}
			// An in-band shard error came from a live worker: keep
			// its warm state, retry elsewhere. An attempt that found no
			// worker leaves nothing to replace either.
			var inBand *ShardError
			if errors.As(err, &inBand) || errors.Is(err, ErrNoWorker) {
				continue
			}
			// Otherwise the worker may be dead (a killed process);
			// replace it. At shutdown the error is just the
			// cancellation — don't spawn a process nobody will use.
			_ = w.Close()
			if ctx.Err() != nil {
				return
			}
			// A slot whose workers keep dying is quarantined before the
			// respawn — backoff with jitter instead of a hot respawn
			// loop against a persistent fault.
			if d := br.Fail(); d > 0 {
				c.logf("worker %d: quarantined for %v (health %.2f)", id, d.Round(time.Millisecond), br.Score())
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			nw, serr := cfg.Spawn(id)
			if serr != nil {
				c.logf("worker %d: respawn failed, retiring slot: %v", id, serr)
				select {
				case retired <- id:
				case <-loopDone:
				}
				return
			}
			wid = int(atomic.AddInt64(&spawnSeq, 1))
			c.logf("worker %d: respawned", id)
			w = nw
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		w, err := cfg.Spawn(i)
		if err != nil {
			return nil, fmt.Errorf("coord: spawning worker %d: %w", i, err)
		}
		wg.Add(1)
		go worker(i, int(atomic.AddInt64(&spawnSeq, 1)), w)
	}

	results := make([][]byte, m)
	done := make([]bool, m)
	queued := make([]bool, m)
	attempts := make([]int, m)
	inflight := make([]int, m)
	expired := make([]int, m) // leases expired per shard; expired == attempts ⇒ every attempt presumed lost
	failedBy := make([]map[int]struct{}, m)
	queue := make([]int, 0, m)
	for i := 0; i < m; i++ {
		queue = append(queue, i)
		queued[i] = true
	}
	remaining := m
	live := cfg.Workers

	for remaining > 0 {
		if live == 0 {
			return nil, fmt.Errorf("coord: all %d workers retired with %d of %d shards unfinished", cfg.Workers, remaining, m)
		}
		// A queued shard whose earlier attempt completed in the meantime
		// (a speculative requeue overtaken by its original) needs no
		// third run — drop it instead of burning a worker on it.
		for len(queue) > 0 && done[queue[0]] {
			queued[queue[0]] = false
			queue = queue[1:]
		}
		// Only arm the dispatch case while something is queued; a nil
		// channel send never fires.
		var sendCh chan int
		var next int
		if len(queue) > 0 {
			next = queue[0]
			sendCh = assignCh
		}
		select {
		case sendCh <- next:
			queue = queue[1:]
			queued[next] = false
			attempts[next]++
			inflight[next]++
			c.logf("shard %d/%d: attempt %d leased", next, m, attempts[next])
			if cfg.Lease > 0 {
				s := next
				time.AfterFunc(cfg.Lease, func() {
					select {
					case expiries <- s:
					case <-loopDone:
					}
				})
			}
		case s := <-expiries:
			if done[s] {
				break
			}
			expired[s]++
			if !queued[s] && attempts[s] < cfg.MaxAttempts {
				c.logf("shard %d/%d: lease expired after %v, reassigning straggler", s, m, cfg.Lease)
				queue = append(queue, s)
				queued[s] = true
				break
			}
			// Attempts exhausted and every one of them has now outlived
			// its lease: the shard is wedged, not merely slow — failing
			// loudly beats hanging the fleet forever. (An attempt that
			// errors instead of wedging aborts through the events case.)
			if attempts[s] >= cfg.MaxAttempts && expired[s] >= attempts[s] {
				return nil, fmt.Errorf("coord: shard %d/%d: all %d attempts exceeded their %v lease", s, m, attempts[s], cfg.Lease)
			}
		case <-retired:
			live--
		case ev := <-events:
			inflight[ev.shard]--
			// The completion-loss drill: a finished shard's result is
			// swallowed here, exactly as if the worker died between
			// computing it and delivering it — the retry path must
			// recover it or refuse by name.
			if ev.err == nil && !done[ev.shard] {
				if act := failpt.Eval(siteCompletion); act != nil && act.Kind == failpt.KindDrop {
					c.logf("shard %d/%d: completion dropped (failpoint %s)", ev.shard, m, siteCompletion)
					ev.err = fmt.Errorf("coord: shard %d completion lost (failpoint %s)", ev.shard, siteCompletion)
					ev.payload = nil
				}
			}
			switch {
			case ev.err != nil:
				if done[ev.shard] {
					break // a speculative sibling already finished it
				}
				c.logf("shard %d/%d: attempt failed: %v", ev.shard, m, ev.err)
				if failedBy[ev.shard] == nil {
					failedBy[ev.shard] = map[int]struct{}{}
				}
				if !errors.Is(ev.err, ErrNoWorker) {
					failedBy[ev.shard][ev.worker] = struct{}{}
				}
				// Poison check first: "failed K distinct workers" is the
				// sharper refusal than "attempts exhausted" when both hold.
				if len(failedBy[ev.shard]) >= cfg.PoisonK {
					return nil, &PoisonShardError{
						Shard: ev.shard, Of: m,
						Workers: len(failedBy[ev.shard]), Attempts: attempts[ev.shard],
						LastFailure: ev.err,
					}
				}
				if queued[ev.shard] || inflight[ev.shard] > 0 {
					break // a retry is already queued or running
				}
				if attempts[ev.shard] >= cfg.MaxAttempts {
					return nil, fmt.Errorf("coord: shard %d/%d failed after %d attempts: %w", ev.shard, m, attempts[ev.shard], ev.err)
				}
				queue = append(queue, ev.shard)
				queued[ev.shard] = true
			case done[ev.shard]:
				c.logf("shard %d/%d: duplicate completion discarded (first result won)", ev.shard, m)
			default:
				if cfg.OnResult != nil {
					if err := cfg.OnResult(ev.shard, ev.payload); err != nil {
						return nil, fmt.Errorf("coord: shard %d/%d result sink: %w", ev.shard, m, err)
					}
				}
				done[ev.shard] = true
				results[ev.shard] = ev.payload
				remaining--
				c.logf("shard %d/%d: complete, %d remaining", ev.shard, m, remaining)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return results, nil
}
