package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/workloads"
)

func TestGoldenCachedAndClean(t *testing.T) {
	r := NewRunner()
	w, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("golden results must be cached")
	}
	if g1.Code != 0 || len(g1.Output) == 0 {
		t.Error("golden run must be clean with output")
	}
}

func TestRunOnceNoInjectionIsCorrectOutput(t *testing.T) {
	r := NewRunner()
	w, _ := workloads.ByName("bzip2")
	for _, v := range []Variant{Stdapp(), NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{})} {
		o, err := r.RunOnce(w, v, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", v.Label(), err)
		}
		if !o.CO || o.SF || o.Detected() {
			t.Errorf("%s: clean run misclassified: %+v", v.Label(), o)
		}
	}
}

func TestVariantLabels(t *testing.T) {
	v := NewVariant(dpmr.SDS, dpmr.PadMalloc{Pad: 32}, dpmr.TemporalHalf)
	if v.Label() != "sds/pad-malloc 32/temporal 1/2" {
		t.Errorf("label = %q", v.Label())
	}
	if v.DiversityLabel() != "pad-malloc 32" || v.PolicyLabel() != "temporal 1/2" {
		t.Error("sub-labels wrong")
	}
	if Stdapp().Label() != "stdapp" {
		t.Error("stdapp label")
	}
}

func TestVariantSets(t *testing.T) {
	dv := DiversityVariants(dpmr.SDS)
	if len(dv) != 8 { // stdapp + 7 diversity variants
		t.Errorf("diversity variants = %d, want 8", len(dv))
	}
	pv := PolicyVariants(dpmr.MDS)
	if len(pv) != 8 { // stdapp + 7 policies
		t.Errorf("policy variants = %d, want 8", len(pv))
	}
}

func TestRunOnceWithInjectionClassifies(t *testing.T) {
	r := NewRunner()
	w, _ := workloads.ByName("mcf")
	sites := faultinject.Enumerate(w.Build(), faultinject.ImmediateFree)
	if len(sites) == 0 {
		t.Fatal("no sites")
	}
	o, err := r.RunOnce(w, Stdapp(), &sites[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !o.SF {
		t.Fatal("injection must execute")
	}
	// The outcome must land in exactly one classification bucket.
	count := 0
	if o.CO {
		count++
	}
	if o.NatDet {
		count++
	}
	if o.DpmrDet {
		count++
	}
	if count > 1 {
		t.Errorf("outcome in %d buckets: %+v", count, o)
	}
}

func TestSmallCampaignCoverage(t *testing.T) {
	r := NewRunner()
	w, _ := workloads.ByName("mcf")
	spec := CampaignSpec(faultinject.ImmediateFree, []workloads.Workload{w}, []Variant{
		Stdapp(),
		NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
	})
	spec.Runs = 1
	spec.MaxSites = 4
	cr, err := r.RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	std := cr.Cell(Stdapp(), "mcf")
	dp := cr.Cell(NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}), "mcf")
	if std.N == 0 || dp.N == 0 {
		t.Fatalf("no successful injections: std=%d dpmr=%d", std.N, dp.N)
	}
	if dp.Coverage() < std.Coverage() {
		t.Errorf("DPMR coverage %.2f below stdapp %.2f", dp.Coverage(), std.Coverage())
	}
	if dp.DpmrDet < 0 || dp.DpmrDet > 1 {
		t.Errorf("DpmrDet fraction out of range: %f", dp.DpmrDet)
	}
	if std.DpmrDet != 0 {
		t.Error("stdapp cannot have DPMR detections")
	}
}

func TestOverheadRatiosSane(t *testing.T) {
	r := NewRunner()
	ws := []workloads.Workload{mustWorkload(t, "art"), mustWorkload(t, "mcf")}
	or, err := r.RunOverhead(context.Background(), OverheadSpec(ws, []Variant{
		Stdapp(),
		NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
		NewVariant(dpmr.MDS, dpmr.NoDiversity{}, dpmr.AllLoads{}),
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range or.Workloads {
		std := or.Ratio["stdapp"][w]
		if std != 1.0 {
			t.Errorf("%s: stdapp ratio %.2f", w, std)
		}
		sds := or.Ratio[NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}).Label()][w]
		if sds < 1.5 || sds > 8 {
			t.Errorf("%s: SDS overhead %.2f outside plausible band", w, sds)
		}
	}
	// Pointer-heavy mcf: MDS must beat SDS (§4.5).
	sds := or.Ratio[NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{}).Label()]["mcf"]
	mds := or.Ratio[NewVariant(dpmr.MDS, dpmr.NoDiversity{}, dpmr.AllLoads{}).Label()]["mcf"]
	if mds >= sds {
		t.Errorf("mcf: MDS %.2f not below SDS %.2f", mds, sds)
	}
}

func mustWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateQuickSmoke(t *testing.T) {
	// Smoke-run one coverage figure, one overhead figure, and the
	// ablation in quick mode.
	for _, id := range []string{"fig3.10", "fig3.16"} {
		var buf bytes.Buffer
		if err := Generate(context.Background(), quickExp(id), &buf, Options{}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		if !strings.Contains(out, "Figure") {
			t.Errorf("%s: missing title: %s", id, out)
		}
		if !strings.Contains(out, "art") {
			t.Errorf("%s: missing workload column: %s", id, out)
		}
	}
}

func TestGenerateUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), ExperimentSpec("fig9.9"), &buf, Options{}); err == nil {
		t.Error("unknown id must error")
	}
}

func TestExperimentIDsCoverPaper(t *testing.T) {
	ids := ExperimentIDs()
	want := map[string]bool{
		"fig3.6": true, "fig3.10": true, "fig3.16": true, "tab3.3": true,
		"tab3.4": true, "fig4.3": true, "fig4.14": true, "tab4.5": true, "tab4.6": true,
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
		if _, ok := generators()[id]; !ok {
			t.Errorf("id %s has no generator", id)
		}
	}
	for id := range want {
		if !have[id] {
			t.Errorf("missing experiment id %s", id)
		}
	}
	if len(ids) != 27 {
		t.Errorf("experiment count = %d, want 27", len(ids))
	}
}

func TestSampleSites(t *testing.T) {
	sites := make([]faultinject.Site, 10)
	for i := range sites {
		sites[i].ID = i
	}
	out := sampleSites(sites, 3)
	if len(out) != 3 {
		t.Fatalf("sampled %d", len(out))
	}
	if out[0].ID == out[1].ID || out[1].ID == out[2].ID {
		t.Error("sampling must pick distinct sites")
	}
	if got := sampleSites(sites, 0); len(got) != 10 {
		t.Error("0 = no cap")
	}
}

// TestSequentialFaultFreeMetamorphic: with no fault injected, DPMR must
// be invisible. Every sequential workload under every Figure 3.x variant
// (the diversity and policy sets of SDS and MDS), runs 0 and 1, gives
// correct output and no detection of either kind.
func TestSequentialFaultFreeMetamorphic(t *testing.T) {
	var vs []Variant
	for _, d := range []dpmr.Design{dpmr.SDS, dpmr.MDS} {
		vs = append(vs, DiversityVariants(d)...)
		vs = append(vs, PolicyVariants(d)...)
	}
	if len(vs) != 32 {
		t.Fatalf("%d variants, want 32", len(vs))
	}
	r := NewRunner()
	for _, w := range workloads.All() {
		for _, v := range vs {
			for rn := 0; rn < 2; rn++ {
				o, err := r.RunOnce(w, v, nil, rn)
				if err != nil {
					t.Fatalf("%s %s run %d: %v", w.Name, v.Label(), rn, err)
				}
				if !o.CO || o.NatDet || o.DpmrDet {
					t.Errorf("%s %s run %d: CO %v NatDet %v DpmrDet %v, want correct output and no detection",
						w.Name, v.Label(), rn, o.CO, o.NatDet, o.DpmrDet)
				}
			}
		}
	}
}
