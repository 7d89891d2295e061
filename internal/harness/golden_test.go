package harness

// Pinned golden reports: one coverage figure, one overhead figure, one
// latency table and one concurrent report per concurrent workload,
// checked byte for byte against testdata/golden under every execution
// cut — whole, sharded 0/3..2/3 and merged, and journaled with a mid-run
// cancel followed by a resume. The goldens pin the system against its own history instead
// of against itself: a classification or aggregation change that every
// cut shares still fails here.
//
// Regenerate (only for an intended, explained report change) with
//
//	go test ./internal/harness -run TestGoldenReports -update
//
// which also rewrites testdata/golden/all-quick.txt, the
// `dpmr-exp -exp all -quick` sweep the CI e2e job diffs.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/journal"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenSpecs names every pinned report: the quick-mode experiments as
// `dpmr-exp -exp <id> -quick` prints them, and the concurrent reports as
// `dpmr-run -workload <name> -campaign -dpmr -runs 4` prints them (minus
// the modules: execution line).
func goldenSpecs() map[string]Spec {
	return map[string]Spec{
		"fig3.7":  quickExp("fig3.7"),
		"fig3.16": quickExp("fig3.16"),
		"tab3.3":  quickExp("tab3.3"),
		"chash":   goldenConcurrent("chash"),
		"cpipe":   goldenConcurrent("cpipe"),
		"csteal":  goldenConcurrent("csteal"),
	}
}

func goldenConcurrent(name string) Spec {
	s := ConcurrentSpec([]string{name}, []Variant{NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{})})
	s.Runs = 4
	return s
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".txt") }

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func checkGolden(t *testing.T, name, cut string, got []byte) {
	t.Helper()
	if want := readGolden(t, name); !bytes.Equal(want, got) {
		t.Errorf("%s (%s) differs from %s:\n--- golden ---\n%s--- got ---\n%s", name, cut, goldenPath(name), want, got)
	}
}

// The report helpers below execute on the given Runner, as a persistent
// worker does: every cut of one Spec shares its module and golden
// caches, which keeps the suite affordable under the race detector.

// wholeReport runs the Spec unsharded and renders its report.
func wholeReport(t *testing.T, r *Runner, spec Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	s, err := Start(context.Background(), spec, WithRunner(r), WithReport(&buf))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind == SpecConcurrent {
		RenderConcurrent(&buf, res.Concurrent)
	}
	return buf.Bytes()
}

// shardedReport runs shards 0/3..2/3 as serialized payloads — the bytes
// a worker process ships — and renders the merge.
func shardedReport(t *testing.T, r *Runner, spec Spec) []byte {
	t.Helper()
	ctx := context.Background()
	var payloads [][]byte
	for i := 0; i < 3; i++ {
		p, err := ShardPayload(ctx, spec, ShardSpec{Index: i, Count: 3}, Options{Runner: r})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	return mergedReport(t, spec, payloads)
}

// mergedReport decodes shard payloads of the Spec's kind and renders
// their merge.
func mergedReport(t *testing.T, spec Spec, payloads [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if spec.Kind == SpecExperiment {
		readers := make([]io.Reader, len(payloads))
		for i, p := range payloads {
			readers[i] = bytes.NewReader(p)
		}
		if err := GenerateMerged(context.Background(), spec, &buf, readers, Options{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	res, err := NewRunner().Merge(spec, payloads)
	if err != nil {
		t.Fatal(err)
	}
	RenderConcurrent(&buf, res.Concurrent)
	return buf.Bytes()
}

// journaledReport runs the Spec against the journal in dir (resuming
// when prior is non-nil). With cancelMidRun the run is cancelled from
// its first progressive snapshot that shows completed trials, and the
// context error is returned instead of a report.
func journaledReport(t *testing.T, r *Runner, spec Spec, j *journal.Journal, prior *journal.Replay, cancelMidRun bool) ([]byte, int, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	if spec.Kind == SpecExperiment {
		executed, err := GenerateJournaled(ctx, spec, j, prior, DefaultResumeSpans, &buf, Options{Runner: r},
			func(_ func(io.Writer) error, done, total int) {
				if cancelMidRun && done > 0 && done < total {
					cancel()
				}
			})
		return buf.Bytes(), executed, err
	}
	res, executed, err := r.RunJournaled(ctx, spec, j, prior, DefaultResumeSpans,
		func(_ Result, done, total int) {
			if cancelMidRun && done > 0 && done < total {
				cancel()
			}
		})
	if err != nil {
		return nil, executed, err
	}
	RenderConcurrent(&buf, res.Concurrent)
	return buf.Bytes(), executed, nil
}

// TestGoldenReports checks every pinned report whole, sharded and
// merged, and journaled across a mid-run cancel and resume.
func TestGoldenReports(t *testing.T) {
	if *update {
		for name, spec := range goldenSpecs() {
			if err := os.WriteFile(goldenPath(name), wholeReport(t, NewRunner(), spec), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var all bytes.Buffer
		if err := GenerateAll(context.Background(), quickExp("all"), &all, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath("all-quick"), all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, spec := range goldenSpecs() {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := NewRunner()
			checkGolden(t, name, "whole", wholeReport(t, r, spec))
			checkGolden(t, name, "sharded 0/3..2/3", shardedReport(t, r, spec))

			j, dir, fp := newTestJournal(t, spec)
			_, executed1, err := journaledReport(t, r, spec, j, nil, true)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled journaled run: err = %v, want context.Canceled", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, rp := reopenJournal(t, dir, fp)
			defer j2.Close()
			got, executed2, err := journaledReport(t, r, spec, j2, rp, false)
			if err != nil {
				t.Fatal(err)
			}
			if executed1 == 0 || executed2 == 0 {
				t.Errorf("cancel/resume split executed %d then %d trials: the cancel landed outside the run", executed1, executed2)
			}
			checkGolden(t, name, "journaled, cancelled and resumed", got)
		})
	}
}

// TestParentArtifactsMergeAndResume feeds partial files and journals
// written by an earlier binary (testdata/parent) through today's merge
// and resume: the wire and journal shapes and every plan fingerprint
// must still line up, and the reports must equal the goldens.
func TestParentArtifactsMergeAndResume(t *testing.T) {
	for _, name := range []string{"chash", "fig3.7", "fig3.16"} {
		spec := goldenSpecs()[name]
		t.Run("merge/"+name, func(t *testing.T) {
			var payloads [][]byte
			for i := 0; i < 2; i++ {
				p, err := os.ReadFile(filepath.Join("testdata", "parent", name+"-shard"+string(rune('0'+i))+".json"))
				if err != nil {
					t.Fatal(err)
				}
				payloads = append(payloads, p)
			}
			checkGolden(t, name, "parent shards merged", mergedReport(t, spec, payloads))
		})
		t.Run("resume/"+name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "parent", "jnl-"+name, journal.FileName))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journal.FileName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			j, rp, err := OpenJournal(dir, true, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			got, executed, err := journaledReport(t, NewRunner(), spec, j, rp, false)
			if err != nil {
				t.Fatal(err)
			}
			// fig3.16's journal is complete: pure replay. The others were
			// cut mid-run and must re-execute only their gaps.
			if (name == "fig3.16") != (executed == 0) {
				t.Errorf("resume of the parent %s journal executed %d trials", name, executed)
			}
			checkGolden(t, name, "parent journal resumed", got)
		})
	}
}
