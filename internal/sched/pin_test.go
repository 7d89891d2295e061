package sched

// Schedule pins: a table of SHA-256 hashes over whole group outcomes —
// the switch count, every thread's result, the combined result and every
// thread's trace — for a fixed set of groups. The table was generated by
// an earlier scheduler, so any change to the PRNG draw order, the abort
// chain, the stack/trace handover or space recycling that leaks into a
// recorded result fails here, not only in the reports built on top.
//
// Regenerate (only for an intended, explained schedule change) with
//
//	go test ./internal/sched -run TestSchedulePins -update

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/failpt"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/mem"
	"dpmr/internal/opt"
	"dpmr/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/schedules.txt from the current code")

var pinPath = filepath.Join("testdata", "schedules.txt")

// pinCase is one pinned group: a module, a config and an optional
// failpoint schedule armed around the run.
type pinCase struct {
	name  string
	m     *ir.Module
	cfg   Config
	armed string
}

func pinCases(t *testing.T) []pinCase {
	t.Helper()
	var cases []pinCase
	for _, w := range workloads.Concurrent() {
		for threads := 1; threads <= 4; threads++ {
			m := w.Build(threads)
			m.Freeze()
			for _, seed := range []int64{1, 2, 3, 1234} {
				cases = append(cases, pinCase{
					name: fmt.Sprintf("%s/t%d/s%d", w.Name, threads, seed),
					m:    m,
					cfg:  Config{Threads: threads, Seed: seed, VM: interp.Config{StepLimit: testStepLimit, Seed: 7}},
				})
			}
		}
	}
	w := workloads.Concurrent()[0]
	xm, err := dpmr.Transform(w.Build(3), dpmr.Config{Design: dpmr.SDS, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	opt.Run(xm)
	xm.Freeze()
	cases = append(cases,
		pinCase{
			name: "sds/" + w.Name + "/t3/s5",
			m:    xm,
			cfg:  Config{Threads: 3, Seed: 5, VM: interp.Config{StepLimit: testStepLimit, Seed: 7}},
		},
		pinCase{
			name: "abort/crashworker/t2/s9",
			m:    crashWorkerModule(),
			cfg:  Config{Threads: 2, Seed: 9, VM: interp.Config{StepLimit: testStepLimit}},
		},
		pinCase{
			name: "timeout/" + w.Name + "/t3/s3",
			m:    buildFrozen(w, 3),
			cfg:  Config{Threads: 3, Seed: 3, VM: interp.Config{StepLimit: 5_000, Seed: 7}},
		},
		pinCase{
			name:  "yield-stall/" + workloads.Concurrent()[1].Name + "/t2/s21",
			m:     buildFrozen(workloads.Concurrent()[1], 2),
			cfg:   Config{Threads: 2, Seed: 21, VM: interp.Config{StepLimit: testStepLimit, Seed: 7}},
			armed: "interp/yield-stall=stall(1)@3",
		},
	)
	// Larger aborting groups: several workers trap, and the unwind chain
	// meets threads both parked at a yield and not yet started.
	for threads := 3; threads <= 4; threads++ {
		for seed := int64(1); seed <= 4; seed++ {
			cases = append(cases, pinCase{
				name: fmt.Sprintf("abort/crashworker/t%d/s%d", threads, seed),
				m:    crashWorkerModule(),
				cfg:  Config{Threads: threads, Seed: seed, VM: interp.Config{StepLimit: testStepLimit}},
			})
		}
	}
	return cases
}

func buildFrozen(w workloads.ConcurrentWorkload, threads int) *ir.Module {
	m := w.Build(threads)
	m.Freeze()
	return m
}

// groupHash digests everything a group run records.
func groupHash(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "switches %d failed %d\n", res.Switches, res.FailedThread)
	writeResult(t, h, "combined", res.Combined)
	for tid, r := range res.Threads {
		writeResult(t, h, fmt.Sprintf("thread %d", tid), r)
	}
	if tr := res.Trace; tr != nil {
		fmt.Fprintf(h, "trace threads %d len %d truncated %v dropped %d\n", tr.Threads(), tr.Len(), tr.Truncated(), tr.Dropped())
		var buf [8 + 1 + 8 + 1 + 8]byte
		for tid := 0; tid < tr.Threads(); tid++ {
			fmt.Fprintf(h, "trace %d\n", tid)
			for _, e := range tr.Thread(tid) {
				binary.LittleEndian.PutUint64(buf[0:], e.Seq)
				buf[8] = byte(e.Op)
				binary.LittleEndian.PutUint64(buf[9:], e.Addr)
				buf[17] = e.Width
				binary.LittleEndian.PutUint64(buf[18:], e.Val)
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeResult(t *testing.T, h hash.Hash, label string, r *interp.Result) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%s %s\n", label, b)
}

func readPins(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(pinPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", pinPath, line)
		}
		pins[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestSchedulePins runs every pinned group and compares its outcome hash
// with testdata/schedules.txt. Each group runs twice, on a fresh space
// and on one recycled through a pool shared by all groups, and both runs
// must hash alike. Every trace is released after hashing, so most groups
// record into a recorder an earlier group (of another thread count, or
// cut short by an abort or a timeout) left behind.
func TestSchedulePins(t *testing.T) {
	got := make(map[string]string)
	pool := mem.NewPool(mem.Config{})
	for _, c := range pinCases(t) {
		run := func(cfg Config) string {
			if c.armed != "" {
				if err := failpt.Arm(c.armed); err != nil {
					t.Fatal(err)
				}
				defer failpt.Disarm()
			}
			res := Run(c.m, cfg)
			defer res.Trace.Release()
			return groupHash(t, res)
		}
		got[c.name] = run(c.cfg)
		pooled := c.cfg
		pooled.VM.SpacePool = pool
		if h := run(pooled); h != got[c.name] {
			t.Errorf("%s: outcome hash on a pooled space %s, on a fresh space %s", c.name, h, got[c.name])
		}
	}
	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# group -> sha256(switches, thread results, combined result, traces); see pin_test.go\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(pinPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readPins(t)
	if len(want) != len(got) {
		t.Errorf("%s pins %d groups, the suite runs %d", pinPath, len(want), len(got))
	}
	for name, sum := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pin in %s", name, pinPath)
		} else if w != sum {
			t.Errorf("%s: outcome hash %s, pinned %s", name, sum, w)
		}
	}
}
