package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedChildren(t *testing.T) {
	// root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,60).
	spans := []span{
		{name: "root", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(40)},
		{name: "b", parent: 1, start: ms(20), end: ms(30)},
		{name: "c", parent: 0, start: ms(50), end: ms(60)},
	}
	sum := summarize(spans)
	want := map[string]time.Duration{"root": ms(60), "a": ms(20), "b": ms(10), "c": ms(10)}
	for name, self := range want {
		if got := sum[name].self; got != self {
			t.Errorf("%s self = %v, want %v", name, got, self)
		}
	}
	if got := sum["a"].total; got != ms(30) {
		t.Errorf("a total = %v, want 30ms", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two parallel children [10,50) and [30,70) cover [10,70) once; a
	// child sticking out of its parent counts only inside it.
	spans := []span{
		{name: "root", parent: -1, start: ms(0), end: ms(100)},
		{name: "x", parent: 0, start: ms(10), end: ms(50)},
		{name: "x", parent: 0, start: ms(30), end: ms(70)},
		{name: "y", parent: 0, start: ms(90), end: ms(120)},
	}
	sum := summarize(spans)
	if got := sum["root"].self; got != ms(30) {
		t.Errorf("root self = %v, want 30ms (100 - [10,70) - [90,100))", got)
	}
	if got := sum["x"]; got.count != 2 || got.total != ms(80) || got.self != ms(80) {
		t.Errorf("x = %+v, want 2 spans, 80ms total and self", *got)
	}
	if got := accountedShare(sum, "root", []string{"x"}); got != 0.8 {
		t.Errorf("accounted share = %v, want 0.8", got)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	ran := false
	r.timed("x", 0, r.begin("root", 0, -1), func() { ran = true })
	if !ran || r.snapshot() != nil {
		t.Fatalf("nil recorder: ran=%v spans=%v", ran, r.snapshot())
	}
	rec := newRecorder()
	root := rec.begin("root", 7, -1)
	rec.timed("child", 7, root, func() {})
	rec.end(root)
	s := rec.snapshot()
	if len(s) != 2 || s[1].parent != 0 || s[1].op != 7 || s[0].end < s[1].end {
		t.Fatalf("spans = %+v", s)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		tail int
		ok   bool
	}{
		{100, 0.9, 10, true},
		{99, 0.9, 9, false},
		{208, 0.9, 20, true},
		{109, 0.9, 10, true},
		{10, 0.5, 5, false},
		{20, 0.5, 10, true},
		{0, 0.9, 0, false},
	} {
		if got := tailSamples(c.n, c.p); got != c.tail {
			t.Errorf("tailSamples(%d, %v) = %d, want %d", c.n, c.p, got, c.tail)
		}
		if got := tailOK(c.n, c.p); got != c.ok {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func sweepKeys(specs []sweepSpec) []string {
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.key
	}
	return keys
}

func TestSweepSequenceIsPureFunctionOfSeed(t *testing.T) {
	a, b := sweepSpecs(42), sweepSpecs(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different sweeps")
	}
	if len(a) != 208 {
		t.Fatalf("sweep has %d specs, want 208", len(a))
	}
	c := sweepSpecs(43)
	if reflect.DeepEqual(sweepKeys(a), sweepKeys(c)) {
		t.Fatal("seeds 42 and 43 produced the same order")
	}
	ka, kc := sweepKeys(a), sweepKeys(c)
	sort.Strings(ka)
	sort.Strings(kc)
	if !reflect.DeepEqual(ka, kc) {
		t.Fatal("different seeds produced different Spec sets")
	}
	seen := map[string]bool{}
	for _, s := range a {
		if seen[s.key] {
			t.Fatalf("spec %s submitted twice", s.key)
		}
		seen[s.key] = true
		n, err := s.spec.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", s.key, err)
		}
		if n.Runs != 1 || n.MaxSites != 2 || len(n.Variants) != 1 || len(n.Workloads) != 1 {
			t.Fatalf("%s: normalized to %+v", s.key, n)
		}
	}
	// Every round of 8 submissions covers each (workload, kind) once.
	for r := 0; r < len(a); r += 8 {
		groups := map[string]bool{}
		for _, s := range a[r : r+8] {
			groups[s.spec.Workloads[0]+"/"+s.spec.Inject] = true
		}
		if len(groups) != 8 {
			t.Fatalf("round %d covers %d (workload, kind) groups, want 8", r/8, len(groups))
		}
	}
}

func TestConcurrentSlotsCoverEverySlot(t *testing.T) {
	for _, seed := range []int64{-9, 0, 1, 7, 1 << 40} {
		seen := map[int]bool{}
		for i := 0; i < concSlots; i++ {
			s := concSlot(seed, i)
			if s < 0 || s >= concSlots {
				t.Fatalf("seed %d: slot %d out of range", seed, s)
			}
			seen[s] = true
		}
		if len(seen) != concSlots {
			t.Fatalf("seed %d: %d consecutive iterations visit %d slots", seed, concSlots, len(seen))
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, w := range workloadList() {
		have[w.name] = true
	}
	for _, w := range bench.Workloads {
		if !have[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
	var st iterStats
	st.lat = make([]time.Duration, 200)
	rep := newReport()
	st.endToEnd(rep, "op")
	if len(bench.EndToEnd) != len(rep.names) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(bench.EndToEnd), len(rep.names))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := rep.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	rec := newRecorder()
	const workers, per = 4, 200
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				root := rec.begin("trial", w*per+i, -1)
				rec.timed("layer", w*per+i, root, func() {})
				rec.end(root)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	sum := summarize(rec.snapshot())
	if countOf(sum, "trial") != workers*per || countOf(sum, "layer") != workers*per {
		t.Fatalf("counts: trial %d, layer %d", countOf(sum, "trial"), countOf(sum, "layer"))
	}
	if sum["trial"].self < 0 || sum["layer"].self != sum["layer"].total {
		t.Fatalf("self times: %+v %+v", *sum["trial"], *sum["layer"])
	}
}
