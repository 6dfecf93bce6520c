package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/serve"
)

// Make-up of the audit-inline-2k inputs.
const (
	auditRows  = 2000
	auditPairs = 8   // pairs of (biased, fair) datasets in the pool
	auditBias  = 1.5 // penalty on group B's approval log-odds
	// auditPoolSeed generates the pool's data and request seeds. The
	// pool does not depend on --seed: every round repeats the same 16
	// computations, so an output fault of the service shows on the
	// same pool entries in every round, the same share of every run.
	auditPoolSeed = 1
)

// auditInline is the audit-inline-2k workload: POST /v1/audit with a
// 2,000-row credit CSV inline in the JSON body, from a pool of biased
// and fair datasets. Each request carries a dataset name of its own,
// made from --seed and the op index, so that the report cache never
// answers; --seed also orders the pool.
type auditInline struct {
	seed uint64
	// prefix[j] is pool entry j's request body up to its dataset
	// name's per-request suffix.
	prefix [][]byte
	// order[k] is the pool entry of the k-th op of every round.
	order []int
	kept  []keptAudit
	// replay is the cache-less engine the traced mode submits to.
	replay *serve.Engine
	// truncated counts the responses whose accuracy interval was
	// computed from one success too few (see checkAudit).
	truncated int
}

type keptAudit struct {
	entry int
	body  []byte
}

func newAuditInline(seed uint64) *auditInline {
	a := &auditInline{seed: seed}
	for p := 0; p < auditPairs; p++ {
		dataSeed := int64(mix64(auditPoolSeed*1000 + uint64(p)))
		for _, bias := range []float64{auditBias, 0} {
			csv := genCredit(creditSpec{rows: auditRows, bias: bias, groupB: 0.35, seed: dataSeed}).csv(0, auditRows)
			j := len(a.prefix)
			reqSeed := 1 + mix64(auditPoolSeed<<32^uint64(j)+0x5eed)>>12
			quoted, _ := json.Marshal(csv)
			b := []byte(`{"csv":`)
			b = append(b, quoted...)
			b = append(b, fmt.Sprintf(`,"seed":%d,"dataset":"credit-%02d-`, reqSeed, j)...)
			a.prefix = append(a.prefix, b)
		}
	}
	// A seeded Fisher-Yates shuffle of the pool.
	a.order = make([]int, len(a.prefix))
	for j := range a.order {
		a.order[j] = j
	}
	for j := len(a.order) - 1; j > 0; j-- {
		k := int(mix64(seed<<8^uint64(j)) % uint64(j+1))
		a.order[j], a.order[k] = a.order[k], a.order[j]
	}
	return a
}

// entry j of the pool is pair j/2, biased when j is even.
func auditBiased(j int) bool { return j%2 == 0 }

func (a *auditInline) roundOps() int { return len(a.prefix) }

func (a *auditInline) entry(i int) int { return a.order[i%len(a.order)] }

// minOps covers 100 rounds: the engine then holds its full ring of
// 1,024 finished jobs, so the peak RSS has levelled off.
func (a *auditInline) minOps() int { return 100 * len(a.prefix) }

// body is op i's request: its pool entry, named credit-<entry>-<seed>-<i>.
func (a *auditInline) body(i int) io.Reader {
	return io.MultiReader(bytes.NewReader(a.prefix[a.entry(i)]),
		strings.NewReader(strconv.FormatUint(a.seed, 10)+"-"+strconv.Itoa(i)+`"}`))
}

// setup has no uploads: the workload's set-up is the planes'
// construction.
func (a *auditInline) setup(s *service, tr *tracer) error {
	a.kept = a.kept[:0]
	if tr != nil {
		a.replay = serve.NewEngine(serve.Config{CacheSize: -1})
		s.extra = append(s.extra, a.replay.Close)
	}
	return nil
}

func (a *auditInline) op(s *service, i int) error {
	code, resp := s.call(http.MethodPost, "/v1/audit", "application/json", a.body(i))
	if code != http.StatusOK {
		return fmt.Errorf("audit op %d: HTTP %d: %.200s", i, code, resp)
	}
	a.kept = append(a.kept, keptAudit{entry: a.entry(i), body: resp})
	return nil
}

func (a *auditInline) traceOp(s *service, i int, tr *tracer) error {
	var resp []byte
	var code int
	_ = tr.do("client.serve", func() error {
		code, resp = s.call(http.MethodPost, "/v1/audit", "application/json", a.body(i))
		return nil
	})
	if code != http.StatusOK {
		return fmt.Errorf("audit op %d: HTTP %d: %.200s", i, code, resp)
	}
	a.kept = append(a.kept, keptAudit{entry: a.entry(i), body: resp})

	// Replay: the calls the handler and the engine make for this
	// request, one span each.
	var wire serve.AuditRequestWire
	err := tr.do("serve.decode", func() error {
		dec := json.NewDecoder(a.body(i))
		dec.DisallowUnknownFields()
		return dec.Decode(&wire)
	})
	if err != nil {
		return err
	}
	var f *frame.Frame
	if err := tr.do("frame.parse", func() (err error) { f, err = frame.ReadCSVString(wire.CSV); return err }); err != nil {
		return err
	}
	_ = tr.do("frame.hash", func() error { _ = f.Hash(); return nil })
	shards := s.engine.Config().Shards
	rep, err := replayAudit(tr, wire.Dataset, f, wire.Seed, shards)
	if err != nil {
		return err
	}
	err = tr.do("serve.encode", func() error {
		_, err := json.MarshalIndent(serve.JobStatus{ID: "job", Tenant: "default", Dataset: wire.Dataset, Status: serve.StatusDone, Report: rep}, "", "  ")
		return err
	})
	if err != nil {
		return err
	}
	var served struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(resp, &served); err != nil {
		return err
	}
	if err := sameReport(served.Report, rep); err != nil {
		return fmt.Errorf("audit op %d: %w", i, err)
	}
	figs, err := replayLayers(tr, f, wire.Seed, shards, false)
	if err != nil {
		return err
	}
	if figs.fidelity != rep.Transparency.SurrogateFidelity || figs.disparateImpact != rep.Fairness.Report.DisparateImpact {
		return fmt.Errorf("audit op %d: layer replay disagrees with the report", i)
	}
	return tr.do("serve.submit_wait", func() error {
		id, err := a.replay.Submit(&serve.Request{Dataset: wire.Dataset, Data: f, Policy: serve.DefaultPolicy(), Spec: defaultTrainSpec(core.MitigateNone), Seed: wire.Seed})
		if err != nil {
			return err
		}
		js, err := a.replay.Wait(context.Background(), id)
		if err == nil && js.Status != serve.StatusDone {
			err = fmt.Errorf("replayed audit %s: %s", js.Status, js.Error)
		}
		return err
	})
}

// auditResponse is the part of a POST /v1/audit response the checks
// read.
type auditResponse struct {
	Status   string       `json:"status"`
	CacheHit bool         `json:"cache_hit"`
	Report   *auditReport `json:"report"`
}

type auditReport struct {
	Fairness struct {
		Report struct {
			Protected       groupStats `json:"Protected"`
			Reference       groupStats `json:"Reference"`
			DisparateImpact *float64   `json:"DisparateImpact"`
		} `json:"report"`
	} `json:"fairness"`
	Accuracy struct {
		Accuracy   float64 `json:"accuracy"`
		AccuracyCI struct {
			Lower float64 `json:"Lower"`
			Upper float64 `json:"Upper"`
			Level float64 `json:"Level"`
		} `json:"accuracy_ci"`
	} `json:"accuracy"`
	Findings []finding `json:"findings"`
	Overall  string    `json:"overall"`
}

type groupStats struct {
	Group        string   `json:"Group"`
	N            int      `json:"N"`
	PositiveRate *float64 `json:"PositiveRate"`
}

type finding struct {
	Dimension string `json:"dimension"`
	Grade     string `json:"grade"`
	Message   string `json:"message"`
}

var testSizeRe = regexp.MustCompile(`\(n=(\d+)\)`)

// checkAudit checks one served audit of a rows-row dataset. It returns
// truncated when the accuracy interval is the Wilson interval of one
// success fewer than the reported accuracy implies, and only where
// int(acc*n) truncates to that count: the service derives the success
// count by truncating accuracy*n (internal/core/audit.go). Such a
// response is wrong; the run counts its op as failed. Any other
// disagreement is an error.
func checkAudit(r *auditResponse, rows int, biased bool) (truncated bool, err error) {
	if r.Status != "done" || r.CacheHit || r.Report == nil {
		return false, fmt.Errorf("status %q cache_hit %v report %v", r.Status, r.CacheHit, r.Report != nil)
	}
	rep := r.Report
	fr := &rep.Fairness.Report
	if fr.DisparateImpact == nil || fr.Protected.PositiveRate == nil || fr.Reference.PositiveRate == nil {
		return false, fmt.Errorf("disparate impact or a group positive rate is null")
	}
	if fr.Protected.Group != protected || fr.Reference.Group != reference {
		return false, fmt.Errorf("groups %q/%q, want %q/%q", fr.Protected.Group, fr.Reference.Group, protected, reference)
	}
	di, ratio := *fr.DisparateImpact, *fr.Protected.PositiveRate / *fr.Reference.PositiveRate
	if !closeTo(di, ratio, 1e-12) {
		return false, fmt.Errorf("disparate impact %v is not the ratio of the group positive rates %v", di, ratio)
	}
	wantN := rows * 3 / 10 // floor(0.3 * rows)
	n := -1
	for _, f := range rep.Findings {
		if m := testSizeRe.FindStringSubmatch(f.Message); f.Dimension == "accuracy" && m != nil {
			n, _ = strconv.Atoi(m[1])
		}
	}
	if n != wantN || fr.Protected.N+fr.Reference.N != wantN {
		return false, fmt.Errorf("test size %d (groups %d+%d), want floor(0.3*%d) = %d", n, fr.Protected.N, fr.Reference.N, rows, wantN)
	}
	acc := rep.Accuracy.Accuracy
	k := int(math.Round(acc * float64(n)))
	if math.Abs(acc*float64(n)-float64(k)) > 1e-6 {
		return false, fmt.Errorf("accuracy %v is not a count over %d test rows", acc, n)
	}
	ci := rep.Accuracy.AccuracyCI
	matches := func(k int) bool {
		lo, hi := wilson95(k, n)
		return closeTo(ci.Lower, lo, 1e-12) && closeTo(ci.Upper, hi, 1e-12) && ci.Level == 0.95
	}
	switch {
	case matches(k):
	case int(acc*float64(n)) == k-1 && matches(k-1):
		truncated = true
	default:
		lo, hi := wilson95(k, n)
		return false, fmt.Errorf("accuracy interval [%v, %v] is not the Wilson interval [%v, %v] of %d/%d", ci.Lower, ci.Upper, lo, hi, k, n)
	}
	if biased {
		if di >= 0.8 {
			return truncated, fmt.Errorf("biased dataset scored disparate impact %v, not below the 0.8 floor", di)
		}
		red := false
		for _, f := range rep.Findings {
			red = red || (f.Dimension == "fairness" && strings.EqualFold(f.Grade, "red") && strings.Contains(f.Message, "disparate impact"))
		}
		if !red || !strings.EqualFold(rep.Overall, "red") {
			return truncated, fmt.Errorf("biased dataset's fairness finding is not Red")
		}
	}
	return truncated, nil
}

// check checks every served response; an op whose accuracy interval
// shows the truncated success count is a failed op.
func (a *auditInline) check(*service) (int, error) {
	a.truncated = 0
	biasedMax := map[int]float64{}
	fairMin := map[int]float64{}
	for _, k := range a.kept {
		var r auditResponse
		if err := json.Unmarshal(k.body, &r); err != nil {
			return 0, fmt.Errorf("pool entry %d: %w", k.entry, err)
		}
		trunc, err := checkAudit(&r, auditRows, auditBiased(k.entry))
		if err != nil {
			return 0, fmt.Errorf("pool entry %d: %w", k.entry, err)
		}
		if trunc {
			a.truncated++
		}
		di, pair := *r.Report.Fairness.Report.DisparateImpact, k.entry/2
		if auditBiased(k.entry) {
			if v, ok := biasedMax[pair]; !ok || di > v {
				biasedMax[pair] = di
			}
		} else if v, ok := fairMin[pair]; !ok || di < v {
			fairMin[pair] = di
		}
	}
	return a.truncated, checkPairs(biasedMax, fairMin)
}

// checkPairs checks that every biased dataset scored a lower disparate
// impact than the fair dataset drawn from the same seed.
func checkPairs(biasedMax, fairMin map[int]float64) error {
	for p, b := range biasedMax {
		if f, ok := fairMin[p]; ok && b >= f {
			return fmt.Errorf("pair %d: biased disparate impact %v is not below the fair one %v", p, b, f)
		}
	}
	return nil
}

func (a *auditInline) layers(*service, int) map[string]float64 { return nil }

func (a *auditInline) summary() string {
	return fmt.Sprintf("%d pool datasets of %d rows (half biased); checked %d responses, %d failed with the truncated accuracy count",
		len(a.prefix), auditRows, len(a.kept), a.truncated)
}
