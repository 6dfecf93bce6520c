package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// smoke runs a handful of ops of a workload with every check on;
// failed ops are those the checks found with a known fault (see
// checkAudit).
func smoke(t *testing.T, w workload, name string, ops int, trace bool) *result {
	t.Helper()
	res, err := runWorkload(w, options{workload: name, seed: 3, ops: ops, setupReps: 1, trace: trace}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	known := 0
	if a, ok := w.(*auditInline); ok {
		known = a.truncated
	}
	if !res.Correct || res.Failed != known || res.Attempted != ops {
		t.Fatalf("%s: correct=%v failed=%d (known faults %d) attempted=%d", name, res.Correct, res.Failed, known, res.Attempted)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Fatalf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Fatalf("%s: metric %s missing", name, m.name)
		}
	}
	return res
}

func TestSmokeAuditInline(t *testing.T) {
	w := newAuditInline(3)
	smoke(t, w, "audit-inline-2k", 18, false)
	// A swapped disparate impact (reference over protected) must fail.
	// The first biased response.
	kept := w.kept[0]
	for _, k := range w.kept {
		if auditBiased(k.entry) {
			kept = k
			break
		}
	}
	var r auditResponse
	if err := json.Unmarshal(kept.body, &r); err != nil {
		t.Fatal(err)
	}
	if _, err := checkAudit(&r, auditRows, true); err != nil {
		t.Fatalf("served response fails its check: %v", err)
	}
	// An interval of one success too few counts as a failed op where
	// int(acc*n) truncates to that count, and fails the check anywhere
	// else.
	n := auditRows * 3 / 10
	k := 1
	for int(float64(k)/float64(n)*float64(n)) == k {
		k++
	}
	acc, ci := r.Report.Accuracy.Accuracy, r.Report.Accuracy.AccuracyCI
	r.Report.Accuracy.Accuracy = float64(k) / float64(n)
	r.Report.Accuracy.AccuracyCI.Lower, r.Report.Accuracy.AccuracyCI.Upper = wilson95(k-1, n)
	if trunc, err := checkAudit(&r, auditRows, true); err != nil || !trunc {
		t.Fatalf("the truncated count at k=%d: truncated=%v err=%v", k, trunc, err)
	}
	r.Report.Accuracy.AccuracyCI.Lower, r.Report.Accuracy.AccuracyCI.Upper = wilson95(k-2, n)
	if _, err := checkAudit(&r, auditRows, true); err == nil {
		t.Fatal("an interval of two successes too few passed the check")
	}
	r.Report.Accuracy.Accuracy, r.Report.Accuracy.AccuracyCI = acc, ci
	fr := &r.Report.Fairness.Report
	swapped := *fr.Reference.PositiveRate / *fr.Protected.PositiveRate
	fr.DisparateImpact = &swapped
	if _, err := checkAudit(&r, auditRows, true); err == nil {
		t.Fatal("a swapped disparate impact passed the check")
	}
	// A fair dataset scoring below its biased twin must fail.
	if err := checkPairs(map[int]float64{0: 0.9}, map[int]float64{0: 0.6}); err == nil {
		t.Fatal("a biased dataset above its fair twin passed the check")
	}
}

func TestSmokeRemediate(t *testing.T) {
	w := newRemediate(3)
	smoke(t, w, "remediate-ref-20k", 2, false)
	var rec runRecord
	if err := json.Unmarshal(w.kept[0], &rec); err != nil {
		t.Fatal(err)
	}
	if err := checkRun(&rec, remRows, remEpsilon); err != nil {
		t.Fatalf("served run fails its check: %v", err)
	}
	// A stage out of order must fail.
	rec.Stages[2], rec.Stages[3] = rec.Stages[3], rec.Stages[2]
	if err := checkRun(&rec, remRows, remEpsilon); err == nil {
		t.Fatal("a stage out of order passed the check")
	}
	rec.Stages[2], rec.Stages[3] = rec.Stages[3], rec.Stages[2]
	// A privacy level other than the one spent must fail.
	if err := checkRun(&rec, remRows, 2*remEpsilon); err == nil {
		t.Fatal("a wrong keep probability passed the check")
	}
}

func TestSmokeMonitor(t *testing.T) {
	w := newMonitorSlide(3)
	smoke(t, w, "monitor-slide-100k", 4, false)
	var h struct {
		History []histEntry `json:"history"`
	}
	if err := json.Unmarshal(w.history, &h); err != nil {
		t.Fatal(err)
	}
	e := &h.History[len(h.History)-1]
	want := w.windowOracle(e.Window)
	if err := checkWindow(e, want); err != nil {
		t.Fatalf("served window fails its check: %v", err)
	}
	// A flipped breach flag must fail.
	e.Drift.Breached = !e.Drift.Breached
	if err := checkWindow(e, want); err == nil {
		t.Fatal("a flipped breach flag passed the check")
	}
	e.Drift.Breached = !e.Drift.Breached
	// A KS statistic off the oracle's must fail.
	for k := range e.Drift.Columns {
		if e.Drift.Columns[k].Column == "income" {
			e.Drift.Columns[k].KS += 1e-6
		}
	}
	if err := checkWindow(e, want); err == nil {
		t.Fatal("a wrong KS statistic passed the check")
	}
}

func TestSmokeTraced(t *testing.T) {
	smoke(t, newAuditInline(3), "audit-inline-2k", 2, true)
	smoke(t, newRemediate(3), "remediate-ref-20k", 1, true)
	smoke(t, newMonitorSlide(3), "monitor-slide-100k", 2, true)
}

// TestBenchmarkJSON checks that BENCHMARK.json, at the repository
// root, names exactly the metrics this command prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bf struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, wl := range bf.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, wl.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics, want %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("metric %d is %+v, want %+v", i, g, m)
			}
		}
	}
}
