package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dpmr/internal/harness"
)

// pinsFile is where --regenerate writes the pinned outputs, relative to
// the repository root the benchmark runs from.
var pinsFile = filepath.Join("perfbench", "pins.json")

//go:embed pins.json
var pinsJSON []byte

// totals are the exact simulated work of a set of trials. They depend
// only on the program's semantics, never on the host, so any change is
// a change of behaviour.
type totals struct {
	Trials   uint64 `json:"trials"`
	Steps    uint64 `json:"steps"`
	Cycles   uint64 `json:"cycles"`
	Memops   uint64 `json:"memops"`
	Switches uint64 `json:"switches,omitempty"`
	Events   uint64 `json:"events,omitempty"`
}

func (t *totals) add(o totals) {
	t.Trials += o.Trials
	t.Steps += o.Steps
	t.Cycles += o.Cycles
	t.Memops += o.Memops
	t.Switches += o.Switches
	t.Events += o.Events
}

// pin is the expected output of one report: its SHA-256 and the exact
// totals of the trials behind it.
type pin struct {
	Report string `json:"report"`
	Totals totals `json:"totals"`
}

// pins maps workload → report key → pin.
type pins map[string]map[string]pin

func loadPins() (*pins, error) {
	p := pins{}
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("decoding embedded pins: %w", err)
	}
	return &p, nil
}

func (p *pins) lookup(workload, key string) (pin, bool) {
	e, ok := (*p)[workload][key]
	return e, ok
}

func (p *pins) put(workload, key string, e pin) {
	if (*p)[workload] == nil {
		(*p)[workload] = map[string]pin{}
	}
	(*p)[workload][key] = e
}

func (p *pins) write() error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsFile, append(b, '\n'), 0o644)
}

// checkReport compares a rendered report's digest with its pin; a
// mismatch fails the ops operations behind the report.
func (p *pins) checkReport(rep *report, workload, key, digest string, ops int) {
	want, ok := p.lookup(workload, key)
	switch {
	case !ok:
		rep.mismatch(ops, "%s %s: no pinned report", workload, key)
	case want.Report != digest:
		rep.mismatch(ops, "%s %s: report sha256 %s, pinned %s", workload, key, digest, want.Report)
	}
}

// checkTotals compares simulated totals with their pin, naming the
// first total that differs.
func (p *pins) checkTotals(rep *report, workload, key string, got totals, ops int) {
	want, ok := p.lookup(workload, key)
	if !ok {
		rep.mismatch(ops, "%s %s: no pinned totals", workload, key)
		return
	}
	w := want.Totals
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"trials", got.Trials, w.Trials},
		{"steps", got.Steps, w.Steps},
		{"cycles", got.Cycles, w.Cycles},
		{"memops", got.Memops, w.Memops},
		{"switches", got.Switches, w.Switches},
		{"events", got.Events, w.Events},
	} {
		if f.got != f.want {
			rep.mismatch(ops, "%s %s: %s = %d, pinned %d", workload, key, f.name, f.got, f.want)
			return
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// renderCampaign writes a campaign result the way dpmr-run prints a
// campaign summary, plus the conditional-coverage cell of each variant,
// so the digest covers every aggregate a report can show.
func renderCampaign(w io.Writer, cr *harness.CampaignResult) {
	for _, v := range cr.Variants {
		for _, wname := range cr.Workloads {
			c := cr.Cell(v, wname)
			fmt.Fprintf(w, "campaign: %s %s variant %s\n", wname, cr.Kind, v.Label())
			fmt.Fprintf(w, "injections: %d successful\n", c.N)
			fmt.Fprintf(w, "coverage:   CO %.2f + NatDet %.2f + DpmrDet %.2f = %.2f\n",
				c.CO, c.NatDet, c.DpmrDet, c.Coverage())
			if c.MeanT2DMS > 0 {
				fmt.Fprintf(w, "latency:    mean time to detection %.3f ms\n", c.MeanT2DMS)
			}
		}
		if c := cr.Conditional[v.Label()]; c != nil {
			fmt.Fprintf(w, "conditional: n %d, CO %.2f + NatDet %.2f + DpmrDet %.2f\n", c.N, c.CO, c.NatDet, c.DpmrDet)
		}
	}
}
