package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/workloads"
)

// fuzzMergeState shares one Runner, campaign Spec, and a genuine
// partial result across fuzz iterations: the Runner memoizes the base
// module build, keeping per-exec plan recomputation cheap, and the real
// partial seeds the corpus with bytes that pass every validation layer.
var fuzzMergeState struct {
	once sync.Once
	r    *Runner
	spec Spec
	seed []byte
	err  error
}

func fuzzMergeSetup() (*Runner, Spec, []byte, error) {
	s := &fuzzMergeState
	s.once.Do(func() {
		s.r = NewRunner()
		s.spec = CampaignSpec(faultinject.ImmediateFree, workloads.All()[:1], []Variant{Stdapp()})
		s.spec.Runs = 1
		s.spec.MaxSites = 2
		p, err := s.r.RunCampaignPartial(context.Background(), s.spec)
		if err != nil {
			s.err = err
			return
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			s.err = err
			return
		}
		s.seed = buf.Bytes()
	})
	return s.r, s.spec, s.seed, s.err
}

// FuzzMergeCampaign fuzzes the partial-result decoder and the merge
// validation stack: arbitrary bytes must either decode into a partial
// that MergeCampaign accepts or be rejected with an error — never a
// panic, and never an allocation sized by attacker-controlled fields
// (the merge buffer is sized by the locally recomputed plan, not the
// file's Total).
func FuzzMergeCampaign(f *testing.F) {
	_, _, seed, err := fuzzMergeSetup()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"fingerprint":"f","shard":{"index":0,"count":1},"lo":0,"hi":1,"total":1,"outcomes":[{"sf":true}]}`))
	f.Add([]byte(`{"fingerprint":"f","lo":0,"hi":0,"total":0,"outcomes":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"lo":-5,"hi":2,"total":99999999999,"outcomes":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePartial(bytes.NewReader(data))
		if err != nil {
			return
		}
		r, spec, _, err := fuzzMergeSetup()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.MergeCampaign(spec, []*PartialResult{p}); err == nil {
			// A single accepted partial must have covered the whole plan.
			if p.Lo != 0 || p.Hi != p.Total {
				t.Fatalf("merge accepted a partial covering [%d, %d) of %d", p.Lo, p.Hi, p.Total)
			}
		}
	})
}

// TestFuzzMergeSeedRoundTrips pins the seed partial's behavior outside
// fuzzing mode: a genuine encoded partial decodes and merges cleanly.
func TestFuzzMergeSeedRoundTrips(t *testing.T) {
	r, spec, seed, err := fuzzMergeSetup()
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePartial(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := r.MergeCampaign(spec, []*PartialResult{p})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := r.RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	renderCoverage(&a, cr, labelDiversity)
	renderCoverage(&b, direct, labelDiversity)
	if a.String() != b.String() {
		t.Errorf("merged single-shard report differs from direct run:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// parentShardFiles lists the checked-in shard outputs of an earlier
// binary: real partial files every decoder fuzzer is seeded from.
func parentShardFiles(f *testing.F, pattern string) [][]byte {
	f.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "parent", pattern))
	if err != nil || len(names) == 0 {
		f.Fatalf("no seed files match %s: %v", pattern, err)
	}
	var seeds [][]byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// experimentSeeds returns the checked-in experiment partials plus, as
// JSON documents of their own, every campaign and overhead partial
// nested inside them.
func experimentSeeds(f *testing.F) (exps, campaigns, overheads [][]byte) {
	f.Helper()
	exps = parentShardFiles(f, "fig3.*-shard*.json")
	for _, data := range exps {
		ep, err := DecodeExperimentPartial(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range ep.Campaigns {
			b, _ := json.Marshal(p)
			campaigns = append(campaigns, b)
		}
		for _, p := range ep.Overheads {
			b, _ := json.Marshal(p)
			overheads = append(overheads, b)
		}
	}
	return exps, campaigns, overheads
}

// checkRoundTrip asserts that an accepted decode is a fixed point of
// Encode→Decode: the re-encoded value decodes again, to a value that
// encodes to the identical bytes.
func checkRoundTrip[T any](t *testing.T, v T, encode func(T, io.Writer) error, decode func(io.Reader) (T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := encode(v, &first); err != nil {
		t.Fatalf("encoding an accepted value: %v", err)
	}
	again, err := decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-decoding an accepted value: %v\n%s", err, first.Bytes())
	}
	if err := encode(again, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip changed the value:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
}

// FuzzDecodePartial: arbitrary bytes either decode into a partial
// result that round-trips, or are refused with an error — never a panic.
func FuzzDecodePartial(f *testing.F) {
	_, campaigns, _ := experimentSeeds(f)
	for _, seed := range append(parentShardFiles(f, "chash-shard*.json"), campaigns...) {
		f.Add(seed)
	}
	f.Add([]byte(`{"fingerprint":"f","lo":0,"hi":0,"total":0,"outcomes":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePartial(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, p, (*PartialResult).Encode, DecodePartial)
	})
}

// FuzzDecodeOverheadPartial is FuzzDecodePartial for overhead partials.
func FuzzDecodeOverheadPartial(f *testing.F) {
	_, _, overheads := experimentSeeds(f)
	for _, seed := range overheads {
		f.Add(seed)
	}
	f.Add([]byte(`{"fingerprint":"f","lo":1,"hi":2,"total":2,"cycles":[18446744073709551615]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeOverheadPartial(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, p, (*OverheadPartial).Encode, DecodeOverheadPartial)
	})
}

// FuzzDecodeExperimentPartial is FuzzDecodePartial for the experiment
// partials dpmr-exp shards write.
func FuzzDecodeExperimentPartial(f *testing.F) {
	exps, _, _ := experimentSeeds(f)
	for _, seed := range exps {
		f.Add(seed)
	}
	f.Add([]byte(`{"exp":"x","campaigns":[null]}`))
	encode := func(ep *ExperimentPartial, w io.Writer) error { return json.NewEncoder(w).Encode(ep) }
	f.Fuzz(func(t *testing.T, data []byte) {
		ep, err := DecodeExperimentPartial(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, ep, encode, DecodeExperimentPartial)
	})
}

// FuzzDecodeSpec: arbitrary bytes either decode into a normalized Spec
// or are refused with an error — never a panic. A decoded Spec is a
// fixed point of Normalized, and its canonical JSON decodes back to the
// same Spec with the same fingerprint.
func FuzzDecodeSpec(f *testing.F) {
	ws := workloads.All()[:2]
	vs := []Variant{Stdapp(), NewVariant(dpmr.MDS, dpmr.PadMalloc{Pad: 32}, dpmr.TemporalHalf)}
	quick := ExperimentSpec("fig3.6")
	quick.Quick = true
	for _, s := range []Spec{
		CampaignSpec(faultinject.HeapArrayResize, ws, vs),
		OverheadSpec(ws, vs),
		ExperimentSpec("tab3.3"),
		quick,
		ConcurrentSpec([]string{"chash", "csteal"}, vs),
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"campaign","workloads":["mcf"],"variants":[{"design":"sds"}],"inject":"immediate-free","runs":-1}`))
	f.Add([]byte(`{"kind":"concurrent","threads":4,"schedSeed":-9,"mem":{"heapBytes":1}}`))
	f.Add([]byte(`{"kind":"experiment","exp":"fig3.16","quick":true,"workloads":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, err := s.Normalized()
		if err != nil {
			t.Fatalf("a decoded Spec fails to renormalize: %v\n%+v", err, s)
		}
		if !reflect.DeepEqual(n, s) {
			t.Fatalf("Normalized is not a fixed point:\n got %+v\nfrom %+v", n, s)
		}
		c, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(bytes.NewReader(c))
		if err != nil {
			t.Fatalf("canonical JSON %s is refused: %v", c, err)
		}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fpBack, err := back.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != fpBack {
			t.Fatalf("fingerprint %s became %s across the round trip of %s", fp, fpBack, c)
		}
	})
}
