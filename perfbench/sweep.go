package main

// dpmrd-sweep: the §1.1 tuning sweep submitted to an in-process dpmrd
// daemon. 208 distinct campaign Specs — every (workload, design, DPMR
// variant, fault kind) with Runs 1 and MaxSites 2 — go closed-loop from
// one client through coordnet.Submit, and each result is decoded,
// merged, rendered and checked before the next is sent. The fleet is
// one in-process worker slot plus one WorkerLoop socket worker on a Unix
// socket, journaling under a fresh directory. A pass submits every Spec
// once, in an order drawn from the seed; each pass runs on a fresh
// daemon, so no Spec is ever resubmitted to a daemon (or journal) that
// has seen it, and journal replay cannot split the latencies into two
// clusters.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/dpmr"
	"dpmr/internal/harness"
	"dpmr/internal/journal"
	"dpmr/internal/workloads"
)

const sweepName = "dpmrd-sweep"

var sweepKinds = []string{"heap-array-resize", "immediate-free"}

// sweepSpec is one submission of the sweep.
type sweepSpec struct {
	key  string // workload/kind/variant label: the pin key
	spec harness.Spec
}

// sweepVariants is the union of the diversity and policy variant sets
// of a design, without stdapp (every campaign runs stdapp trials
// anyway) and without duplicates: 13 per design.
func sweepVariants(d dpmr.Design) []harness.Variant {
	seen := map[string]bool{}
	var out []harness.Variant
	for _, v := range append(harness.DiversityVariants(d), harness.PolicyVariants(d)...) {
		if !v.DPMR || seen[v.Label()] {
			continue
		}
		seen[v.Label()] = true
		out = append(out, v)
	}
	return out
}

// sweepSpecs returns the sweep in the order the seed draws. It is a
// pure function of the seed. The Specs fall into one group per
// (workload, fault kind); each group is shuffled, and submission i·8+j
// is the i-th Spec of the j-th group in a per-round shuffled group
// order, so every prefix of the sequence mixes the workloads and fault
// kinds evenly whatever the seed.
func sweepSpecs(seed int64) []sweepSpec {
	rng := rand.New(rand.NewSource(seed))
	var groups [][]sweepSpec
	for _, w := range workloads.All() {
		for _, kind := range sweepKinds {
			var g []sweepSpec
			for _, d := range []dpmr.Design{dpmr.SDS, dpmr.MDS} {
				for _, v := range sweepVariants(d) {
					g = append(g, sweepSpec{
						key: w.Name + "/" + kind + "/" + v.Label(),
						spec: harness.Spec{
							Kind:      harness.SpecCampaign,
							Workloads: []string{w.Name},
							Variants:  harness.VariantSpecs(v),
							Inject:    kind,
							Runs:      1,
							MaxSites:  2,
						},
					})
				}
			}
			rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
			groups = append(groups, g)
		}
	}
	var out []sweepSpec
	for i := range groups[0] {
		for _, j := range rng.Perm(len(groups)) {
			out = append(out, groups[j][i])
		}
	}
	return out
}

// fleet is one in-process daemon with its socket worker.
type fleet struct {
	dir       string
	addr      string
	cancel    context.CancelFunc
	serveErr  chan error
	workerErr chan error
}

// fleetSize is the daemon's fleet: one local slot plus one socket worker
// (nproc = 2 connections at most, with the client's).
const fleetSize = 2

// startFleet listens on a fresh Unix socket, starts the daemon, joins a
// socket worker and waits until the fleet is complete.
func startFleet(ctx context.Context, c *config) (*fleet, error) {
	dir, err := os.MkdirTemp(c.tmp, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, addr: filepath.Join(dir, "d.sock"), serveErr: make(chan error, 1), workerErr: make(chan error, 1)}
	ln, err := coordnet.Listen(f.addr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := coordnet.NewServer(coordnet.ServerConfig{
		LocalWorkers: 1,
		JournalRoot:  filepath.Join(dir, "journal"),
	})
	fctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	joined := make(chan struct{})
	var once sync.Once
	go func() { f.serveErr <- srv.Serve(fctx, ln) }()
	go func() {
		f.workerErr <- coordnet.WorkerLoop(fctx, f.addr, harness.Options{}, func(bool) { once.Do(func() { close(joined) }) })
	}()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	select {
	case <-joined:
	case err := <-f.workerErr:
		f.workerErr <- err
		f.stop()
		return nil, fmt.Errorf("socket worker failed to join: %v", err)
	case <-timeout.C:
		f.stop()
		return nil, errors.New("socket worker did not join within 10s")
	}
	// The daemon admits the worker to its pool just after the handshake
	// the worker has already seen complete.
	for srv.FleetSize() < fleetSize {
		select {
		case <-timeout.C:
			f.stop()
			return nil, errors.New("fleet did not assemble within 10s")
		default:
			runtime.Gosched()
		}
	}
	return f, nil
}

// stop drains the daemon and its worker, waits for both, and removes
// the fleet's directory.
func (f *fleet) stop() error {
	f.cancel()
	err := <-f.serveErr
	if werr := <-f.workerErr; err == nil {
		err = werr
	}
	os.RemoveAll(f.dir)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// submission is what one closed-loop submission produced.
type submission struct {
	lat        time.Duration
	trials     int
	digest     string
	payloads   [][]byte
	parts      []*harness.PartialResult
	firstEvent time.Duration
	tail       time.Duration
	shards     int
	shardExec  time.Duration
}

// submit sends one Spec, then decodes, merges and renders the result:
// the latency runs from the Submit call to the checked report.
func submit(ctx context.Context, addr string, s sweepSpec, rec *recorder, op int) (*submission, error) {
	out := &submission{}
	t0 := time.Now()
	root := rec.begin("submission", op, -1)
	defer rec.end(root)
	var first, last time.Time
	sink := func(ev harness.Event) {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		last = now
		if sm, ok := ev.(harness.ShardMerged); ok {
			out.shards++
			out.shardExec += sm.Elapsed
		}
	}
	var err error
	rec.timed("coordnet.Submit", op, root, func() { out.payloads, err = coordnet.Submit(ctx, addr, s.spec, sink) })
	if err != nil {
		return nil, err
	}
	returned := time.Now()
	if !first.IsZero() {
		out.firstEvent = first.Sub(t0)
		out.tail = returned.Sub(last)
	}
	for _, p := range out.payloads {
		var part *harness.PartialResult
		rec.timed("harness.DecodePartial", op, root, func() { part, err = harness.DecodePartial(bytes.NewReader(p)) })
		if err != nil {
			return nil, err
		}
		out.parts = append(out.parts, part)
		out.trials += part.Hi - part.Lo
	}
	var cr *harness.CampaignResult
	rec.timed("harness.MergeCampaign", op, root, func() { cr, err = harness.NewRunner().MergeCampaign(s.spec, out.parts) })
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	rec.timed("harness.render", op, root, func() { renderCampaign(&buf, cr) })
	out.digest = digest(buf.Bytes())
	out.lat = time.Since(t0)
	return out, nil
}

// sweepPass submits every Spec once to a fresh fleet, checking each
// report, and returns the submissions in order (nil for a refused one).
func sweepPass(ctx context.Context, c *config, rep *report, f *fleet, specs []sweepSpec, rec *recorder) ([]*submission, error) {
	out := make([]*submission, len(specs))
	for i, s := range specs {
		sub, err := submit(ctx, f.addr, s, rec, i)
		if rep != nil {
			rep.attempted++
		}
		if err != nil {
			if rep == nil {
				return nil, fmt.Errorf("%s: %w", s.key, err)
			}
			rep.mismatch(1, "%s %s: submission failed: %v", sweepName, s.key, err)
			continue
		}
		if rep != nil {
			c.pins.checkReport(rep, sweepName, s.key, sub.digest, 1)
		}
		out[i] = sub
	}
	return out, nil
}

// sweepSetupReps is how many fleets each pass starts, keeping the last.
// Assembling a fleet takes a fraction of a millisecond, so many readings
// make the median of setup_s steady.
const sweepSetupReps = 40

// setupFleet times sweepSetupReps fleet start-ups (not the shutdowns
// between them) and returns the last fleet.
func setupFleet(ctx context.Context, c *config, st *iterStats) (*fleet, error) {
	var f *fleet
	err := st.timeSetups(sweepSetupReps, func() (time.Duration, error) {
		if f != nil {
			err := f.stop()
			f = nil
			if err != nil {
				return 0, err
			}
		}
		t := time.Now()
		var err error
		f, err = startFleet(ctx, c)
		return time.Since(t), err
	})
	if err != nil {
		if f != nil {
			f.stop()
		}
		return nil, err
	}
	return f, nil
}

func measureSweep(ctx context.Context, c *config) (*report, error) {
	rep := newReport()
	specs := sweepSpecs(c.seed)
	// Untimed warm-up: one fleet, the first two rounds of the sweep.
	f, err := startFleet(ctx, c)
	if err != nil {
		return nil, err
	}
	_, err = sweepPass(ctx, c, nil, f, specs[:16], nil)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	var st iterStats
	start := time.Now()
	var last time.Duration
	for len(st.tps) == 0 || time.Since(start)+last <= c.seconds {
		t := time.Now()
		f, err := setupFleet(ctx, c, &st)
		if err != nil {
			return nil, err
		}
		u := readUsage()
		subs, err := sweepPass(ctx, c, rep, f, specs, nil)
		w := u.until(readUsage())
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		trials := 0
		for _, s := range subs {
			if s != nil {
				trials += s.trials
				st.lat = append(st.lat, s.lat)
			}
		}
		st.add(w, trials)
		last = time.Since(t)
	}
	st.endToEnd(rep, "submission")
	return rep, nil
}

// sweepClientLayers are the client-side spans inside each submission.
var sweepClientLayers = []string{"coordnet.Submit", "harness.DecodePartial", "harness.MergeCampaign", "harness.render"}

// traceSweep traces the given Specs: a fresh fleet serves an untraced
// and then a traced pass over them, and the daemon's work for each Spec
// is replayed and journaled again.
func traceSweep(ctx context.Context, c *config, specs []sweepSpec) (*report, error) {
	rep := newReport()
	rec := newRecorder()

	// Untraced then traced pass, each on a fresh fleet.
	pass := func(rec *recorder) ([]*submission, window, error) {
		f, err := startFleet(ctx, c)
		if err != nil {
			return nil, window{}, err
		}
		u := readUsage()
		subs, err := sweepPass(ctx, c, rep, f, specs, rec)
		w := u.until(readUsage())
		if serr := f.stop(); err == nil {
			err = serr
		}
		return subs, w, err
	}
	_, untraced, err := pass(nil)
	if err != nil {
		return nil, err
	}
	subs, traced, err := pass(rec)
	if err != nil {
		return nil, err
	}

	// Client-side figures of the traced pass.
	var n, shards, payloads, bytesTotal float64
	var first, tail, exec time.Duration
	for _, s := range subs {
		if s == nil {
			continue
		}
		n++
		shards += float64(s.shards)
		exec += s.shardExec
		first += s.firstEvent
		tail += s.tail
		payloads += float64(len(s.payloads))
		for _, p := range s.payloads {
			bytesTotal += float64(len(p))
		}
	}
	sum := summarize(rec.snapshot())
	if n > 0 {
		rep.set("harness.partial_decode_us", "us", meanOf(sum, "harness.DecodePartial", time.Microsecond))
		rep.set("harness.merge_us", "us", meanOf(sum, "harness.MergeCampaign", time.Microsecond))
		rep.set("harness.render_us", "us", meanOf(sum, "harness.render", time.Microsecond))
		if payloads > 0 {
			rep.set("harness.partial_kb", "KiB", bytesTotal/payloads/1024)
		}
		rep.set("coord.shards_per_submit", "count", shards/n)
		if shards > 0 {
			rep.set("coord.shard_exec_ms", "ms", float64(exec)/float64(time.Millisecond)/shards)
		}
		rep.set("coordnet.first_event_ms", "ms", float64(first)/float64(time.Millisecond)/n)
		rep.set("coordnet.tail_ms", "ms", float64(tail)/float64(time.Millisecond)/n)
		rep.set("coordnet.result_kb", "KiB", bytesTotal/n/1024)
	}
	accounted := accountedShare(sum, "submission", sweepClientLayers)

	// Replay what the daemon did for each Spec through the layer entry
	// points (plan, golden, module builds, trials), checked against
	// RunOnce and the pinned totals; then journal the same payloads into
	// fresh journals.
	brec := newRecorder()
	heap := startHeapSampler()
	bu := readUsage()
	var all totals
	var built int64
	op := 0
	for _, s := range specs {
		spec, err := s.spec.Normalized()
		if err != nil {
			return nil, err
		}
		r := harness.NewRunner()
		brec.timed("harness.PlanTrials", -1, -1, func() { _, err = r.PlanTrials(spec) })
		if err != nil {
			return nil, err
		}
		w, err := workloads.ByName(spec.Workloads[0])
		if err != nil {
			return nil, err
		}
		brec.timed("harness.Golden", -1, -1, func() { _, err = r.Golden(w) })
		if err != nil {
			return nil, err
		}
		rp := newReplayer(brec, spec, r.Golden)
		trials, err := planCampaign(spec, rp.base)
		if err != nil {
			return nil, err
		}
		results, err := rp.run(trials, 1, op)
		if err != nil {
			return nil, err
		}
		op += len(trials)
		built += rp.built.Load()
		rep.attempted += len(trials)
		bad, err := verifyAgainstRunOnce(r, trials, results)
		if err != nil {
			return nil, err
		}
		if bad > 0 {
			rep.mismatch(bad, "%s %s: %d replayed trials differ from RunOnce", sweepName, s.key, bad)
		}
		tot := trialTotals(results)
		c.pins.checkTotals(rep, sweepName, s.key, tot, len(trials))
		all.add(tot)
	}
	replayed := bu.until(readUsage())
	peak := heap.finish()
	appends, err := journalReplay(c, specs, subs, brec)
	if err != nil {
		return nil, err
	}
	bsum := summarize(brec.snapshot())
	if n > 0 {
		rep.set("journal.appends_per_submit", "count", float64(appends)/n)
	}
	rep.set("journal.append_us", "us", meanOf(bsum, "journal.Append", time.Microsecond))
	fmt.Printf("passes: untraced %.3fs, traced %.3fs for %d submissions; replay %d trials in %.3fs\n",
		untraced.wall.Seconds(), traced.wall.Seconds(), len(specs), all.Trials, replayed.wall.Seconds())

	buildLayers(rep, bsum, built)
	runLayers(rep, bsum, all)
	workLayers(rep, all)
	setupLayers(rep, bsum)
	// The GC share and heap peak describe the replay, where the layers
	// run in this process's own goroutines.
	runtimeLayers(rep, replayed.gcShare, peak, accounted, traced, untraced)
	return rep, nil
}

// journalReplay appends each submission's payloads, in order, to a fresh
// journal per Spec, timing every journal.Append (which includes its
// fsync). It returns the number of appends.
func journalReplay(c *config, specs []sweepSpec, subs []*submission, rec *recorder) (int, error) {
	appends := 0
	for i, s := range subs {
		if s == nil {
			continue
		}
		dir := filepath.Join(c.tmp, fmt.Sprintf("journal-%d", i))
		j, _, err := harness.OpenJournal(dir, false, specs[i].spec)
		if err != nil {
			return 0, err
		}
		for k, p := range s.parts {
			rec.timed("journal.Append", i, -1, func() {
				err = j.Append(journal.Record{
					PlanFP: p.Fingerprint, Lo: p.Lo, Hi: p.Hi, Total: p.Total,
					ElapsedMS: p.ElapsedMS, Payload: s.payloads[k],
				})
			})
			if err != nil {
				j.Close()
				return 0, err
			}
			appends++
		}
		if err := j.Close(); err != nil {
			return 0, err
		}
		os.RemoveAll(dir)
	}
	return appends, nil
}
