// Command perfbench is the repository's benchmark: it drives the dpmr
// pipeline through its public entry points on three named workloads,
// checks every output against pinned digests and simulated totals, and
// prints end-to-end metrics (untraced run) or per-layer metrics (traced
// run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-coverage --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload concurrent --seed 1 --seconds 40 --repeat 10
//	bash perfbench/run.sh --regenerate
//
// See perfbench/README.md for the workloads, the metrics, and the rules
// for the pinned outputs.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	parallel int // campaign workers = connections = nproc
	tmp      string
	pins     *pins
}

// deadline reports whether a measurement started at start has used its
// time.
func (c *config) deadline(start time.Time) bool { return time.Since(start) >= c.seconds }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's operations, failures and metrics.
type report struct {
	attempted int
	failed    int
	names     []string
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// mismatch records n failed operations and prints what failed by name.
func (r *report) mismatch(n int, format string, args ...any) {
	r.failed += n
	fmt.Printf("MISMATCH: "+format+"\n", args...)
}

// print writes the human-readable metric lines and then the JSON result
// line, which must be the last line of standard output.
func (r *report) print(w io.Writer) error {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g (%d failed of %d attempted)\n", "error_rate", errRate, r.failed, r.attempted)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// workload is one named traffic mix: an untraced measurement producing
// the end-to-end metrics and a traced run producing the per-layer ones.
type workload struct {
	name    string
	measure func(ctx context.Context, c *config) (*report, error)
	traced  func(ctx context.Context, c *config) (*report, error)
}

func workloadList() []workload {
	return []workload{
		{"paper-coverage", measurePaper, func(ctx context.Context, c *config) (*report, error) {
			return traceWith(ctx, c, tracePaper, probeSweep, traceConcurrent)
		}},
		{"dpmrd-sweep", measureSweep, func(ctx context.Context, c *config) (*report, error) {
			return traceWith(ctx, c, func(ctx context.Context, c *config) (*report, error) {
				return traceSweep(ctx, c, sweepSpecs(c.seed))
			}, traceConcurrent)
		}},
		{"concurrent", measureConcurrent, func(ctx context.Context, c *config) (*report, error) {
			return traceWith(ctx, c, traceConcurrent, probeSweep)
		}},
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name       = flag.String("workload", "", "workload: paper-coverage, dpmrd-sweep or concurrent")
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Int("seconds", 40, "measured seconds per run")
		trace      = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		repeat     = flag.Int("repeat", 0, "run the untraced benchmark this many times (seeds seed, seed+1, ...) in child processes and print each end-to-end metric's median and quartiles")
		regenerate = flag.Bool("regenerate", false, "recompute every pinned output and write perfbench/pins.json (only a change that redefines the benchmark may do this)")
	)
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	c := &config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		parallel: nproc,
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		c.workload, c.seed, *seconds, *trace, nproc, runtime.GOMAXPROCS(0), runtime.Version(), commit(), sourceDigest())

	if *repeat > 0 {
		return repeatRuns(c, *repeat)
	}
	var err error
	if c.pins, err = loadPins(); err != nil {
		return err
	}
	tmpRoot := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	if c.tmp, err = os.MkdirTemp(tmpRoot, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(c.tmp)

	ctx := context.Background()
	if *regenerate {
		return regeneratePins(ctx, c)
	}
	for _, w := range workloadList() {
		if w.name != c.workload {
			continue
		}
		f := w.measure
		if c.trace {
			f = w.traced
		}
		rep, err := f(ctx, c)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		return rep.print(os.Stdout)
	}
	var names []string
	for _, w := range workloadList() {
		names = append(names, w.name)
	}
	return fmt.Errorf("unknown workload %q (want %s)", c.workload, strings.Join(names, ", "))
}

// commit names the source revision the binary was built from, when the
// build saw a version-control checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources under the working directory, so a
// run outside a version-control checkout still names the code it
// measured.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
