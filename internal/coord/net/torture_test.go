package coordnet_test

// The seeded torture drill — the robustness headline. Each iteration
// derives a randomized failpoint schedule from a seed (printed for
// replay: DPMR_TORTURE_SEED=<n> go test -run Torture), arms it over a
// full remote campaign — daemon, fleet workers over real sockets,
// journaled submission — and asserts the two-outcome invariant: the
// merged result is identical to the undisturbed baseline, or the
// submission fails with a named error. Never a silent divergence,
// never a hang (the submission deadline), never a goroutine leak.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/failpt"
	"dpmr/internal/harness"
)

// tortureIterations is how many derived schedules one test run drills.
const tortureIterations = 3

// tortureSeed resolves the drill's base seed: the env override for
// replaying a failure, otherwise the clock.
func tortureSeed(t *testing.T) int64 {
	if s := os.Getenv("DPMR_TORTURE_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("DPMR_TORTURE_SEED=%q: %v", s, err)
		}
		return n
	}
	return time.Now().UnixNano()
}

// launchTolerantWorkers runs n fleet workers that, unlike joinWorkers,
// tolerate failed joins: an armed schedule may sever the very
// handshake, and a torture worker's job is to keep redialing the way
// a supervised dpmrd -connect process would be restarted.
func launchTolerantWorkers(ctx context.Context, n int, addr string) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				_ = coordnet.WorkerLoop(ctx, addr, harness.Options{Evict: true}, nil)
				select {
				case <-ctx.Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
		}()
	}
	return &wg
}

func TestSeededTortureDrill(t *testing.T) {
	spec := testCampaignSpec()
	golden, err := harness.NewRunner().RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	seed := tortureSeed(t)
	t.Logf("torture drill base seed %d (replay: DPMR_TORTURE_SEED=%d go test -run TestSeededTortureDrill ./internal/coord/net/)", seed, seed)

	for i := 0; i < tortureIterations; i++ {
		iterSeed := seed + int64(i)
		sched := failpt.RandomSchedule(iterSeed, 4)
		t.Logf("iteration %d: seed %d schedule %q", i, iterSeed, sched)
		drill(t, spec, golden, sched, fmt.Sprintf("iteration %d (seed %d)", i, iterSeed))
	}
}

// TestTortureSeverSchedules replays schedules that once wedged the
// drill: base seed 1792236108032892151, iterations 0 and 1 (every later
// frame write severed or torn), and base seed 1792238361926118528,
// iteration 2 (every later frame read severed). No worker can rejoin
// and no frame reaches the client; the submission must still end in
// one of the two outcomes within the deadline.
func TestTortureSeverSchedules(t *testing.T) {
	spec := testCampaignSpec()
	golden, err := harness.NewRunner().RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{
		"mem/trace-drop=drop@8+;coord/completion=drop@5;net/frame-write=sever@7+;net/keepalive=drop@4+",
		"net/handshake=stall(17)@8+;harness/resume=err(ENOSPC)@8+;net/frame-write=torn(32)@4+;net/handshake=stall(22)@6+",
		"coord/completion=drop@1;net/frame-read=sever@5+;net/frame-read=sever@5;net/handshake=stall(20)@6",
	} {
		drill(t, spec, golden, sched, fmt.Sprintf("schedule %q", sched))
	}
}

// drill runs one torture iteration: a daemon with three tolerant
// workers, the schedule armed over a journaled remote submission, and
// the two-outcome check on what comes back.
func drill(t *testing.T, spec harness.Spec, golden *harness.CampaignResult, sched, label string) {
	t.Helper()
	before := runtime.NumGoroutine()
	srv, addr, shutdown := daemon(t, coordnet.ServerConfig{
		JournalRoot: t.TempDir(),
		Lease:       2 * time.Second,
		Keepalive:   200 * time.Millisecond,
	})
	wctx, wcancel := context.WithCancel(context.Background())
	workers := launchTolerantWorkers(wctx, 3, addr)

	// Give the fleet a moment to assemble before the faults arm; a
	// drill against an empty fleet only ever exercises checkout
	// timeouts. Proceed regardless — that outcome is legal too.
	assembleDeadline := time.Now().Add(2 * time.Second)
	for srv.FleetSize() < 3 && time.Now().Before(assembleDeadline) {
		time.Sleep(5 * time.Millisecond)
	}

	if err := failpt.Arm(sched); err != nil {
		t.Fatalf("%s: unarmable schedule: %v", label, err)
	}

	// The hang bound: a drill outcome must arrive within the deadline or
	// the iteration fails — "no third outcome" includes no wedging.
	start := time.Now()
	sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
	payloads, err := coordnet.Submit(sctx, addr, spec, nil)
	wedged := sctx.Err() != nil
	scancel()
	failpt.Disarm()

	hits := failpt.Sites()
	var fired []string
	for site, n := range hits {
		if n > 0 {
			fired = append(fired, site+"="+strconv.Itoa(n))
		}
	}
	sort.Strings(fired)
	t.Logf("%s: outcome after %v, site hits %v", label, time.Since(start).Round(time.Millisecond), fired)

	switch {
	case wedged:
		t.Errorf("%s: drill wedged past the %v deadline — the forbidden third outcome", label, 60*time.Second)
	case err != nil:
		// Outcome 2: a named refusal. The error must say something — an
		// empty message is a silent failure with an exit code.
		if err.Error() == "" {
			t.Errorf("%s: refusal carries no name", label)
		}
		t.Logf("%s: named refusal: %v", label, err)
	default:
		// Outcome 1: byte-identical to the undisturbed run.
		parts := make([]*harness.PartialResult, len(payloads))
		for k, payload := range payloads {
			p, derr := harness.DecodePartial(bytes.NewReader(payload))
			if derr != nil {
				t.Errorf("%s: undecodable shard payload: %v", label, derr)
				parts = nil
				break
			}
			parts[k] = p
		}
		if parts != nil {
			merged, merr := harness.NewRunner().MergeCampaign(spec, parts)
			if merr != nil {
				t.Errorf("%s: survived payloads do not merge: %v", label, merr)
			} else if !reflect.DeepEqual(golden, merged) {
				t.Errorf("%s: SILENT DIVERGENCE — merged result differs from the undisturbed run", label)
			} else {
				t.Logf("%s: identical merged result", label)
			}
		}
	}

	wcancel()
	workers.Wait()
	shutdown()
	checkGoroutines(t, before)
}
