package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/privacy"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store"
	"github.com/responsible-data-science/rds/internal/store/memory"
)

// Make-up of the remediate-ref-20k inputs.
const (
	remRows     = 20000
	remDatasets = 4
	remBias     = 1.5
	remEpsilon  = 1.0
	// remPoll is the status poll interval, small against a run of
	// a few hundred milliseconds.
	remPoll = 5 * time.Millisecond
	// remKeep is how many finished run records are kept for the checks.
	remKeep = 2 * remDatasets
	// remBandZ is the half-width, in standard deviations, of the
	// binomial band the realized flip rate must fall in.
	remBandZ = 6
)

// remStages is the default curriculum, spelled out independently of
// the pipelines package.
var remStages = []string{"train", "audit", "mitigate", "re-audit", "ldp-privatize", "retrain", "re-audit"}

// remediate is the remediate-ref-20k workload: a few biased 20,000-row
// datasets are uploaded once, and each op submits the default
// seven-stage curriculum by dataset_ref with a fresh seed, then polls
// the run until it ends.
type remediate struct {
	seed uint64
	csv  []string
	refs []string
	kept [][]byte
	// traced-mode state: a store for store.save, and the service's
	// per-stage figures summed over traced ops.
	saveStore  *memory.Store
	stageMS    map[string]float64
	overheadMS float64
	tracedRuns int
}

func newRemediate(seed uint64) *remediate {
	r := &remediate{seed: seed}
	for d := 0; d < remDatasets; d++ {
		data := genCredit(creditSpec{rows: remRows, bias: remBias, groupB: 0.35, seed: int64(mix64(seed*1000 + 500 + uint64(d)))})
		r.csv = append(r.csv, data.csv(0, remRows))
	}
	return r
}

func (r *remediate) roundOps() int { return remDatasets }

func (r *remediate) requestSeed(i int) uint64 { return 1 + mix64(r.seed<<32^uint64(i)+0xfeed)>>12 }

func (r *remediate) specBody(i int) []byte {
	return []byte(fmt.Sprintf(`{"name":"remediate-%d","dataset_ref":%q,"mitigation":"reweigh","epsilon":%g,"seed":%d}`,
		i%remDatasets, r.refs[i%remDatasets], remEpsilon, r.requestSeed(i)))
}

func (r *remediate) minOps() int { return 100 }

// setup uploads the datasets through POST /v1/datasets; the registry
// persists each to the in-memory store.
func (r *remediate) setup(s *service, tr *tracer) error {
	r.refs, r.kept = r.refs[:0], r.kept[:0]
	for d, csv := range r.csv {
		ref, err := s.upload(fmt.Sprintf("credit-20k-%d", d), csv)
		if err != nil {
			return err
		}
		r.refs = append(r.refs, ref)
	}
	if tr == nil {
		return nil
	}
	// The traced set-up times the upload's two calls once more, into
	// a registry of its own with a store attached like the service's.
	reg := dataset.NewRegistry(dataset.DefaultBudgetBytes)
	if err := reg.AttachStore(memory.New()); err != nil {
		return err
	}
	for d, csv := range r.csv {
		var f *frame.Frame
		if err := tr.do("frame.parse", func() (err error) { f, err = frame.ReadCSV(strings.NewReader(csv)); return err }); err != nil {
			return err
		}
		err := tr.do("dataset.put", func() error {
			_, err := reg.PutAs("default", fmt.Sprintf("credit-20k-%d", d), f)
			return err
		})
		if err != nil {
			return err
		}
	}
	r.saveStore = memory.New()
	r.stageMS = map[string]float64{}
	r.overheadMS, r.tracedRuns = 0, 0
	return nil
}

// submit runs one pipeline to its end through the HTTP API and returns
// the final record's body.
func (r *remediate) submit(s *service, i int) ([]byte, error) {
	code, resp := s.call(http.MethodPost, "/v1/pipelines", "application/json", bytes.NewReader(r.specBody(i)))
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("pipeline op %d: HTTP %d: %.200s", i, code, resp)
	}
	id, _, err := recordHead(resp)
	if err != nil {
		return nil, err
	}
	for {
		time.Sleep(remPoll)
		code, resp = s.call(http.MethodGet, "/v1/pipelines/"+id, "", nil)
		if code != http.StatusOK {
			return nil, fmt.Errorf("pipeline op %d: poll HTTP %d: %.200s", i, code, resp)
		}
		_, status, err := recordHead(resp)
		if err != nil {
			return nil, err
		}
		switch status {
		case "done":
			return resp, nil
		case "failed":
			return nil, fmt.Errorf("pipeline op %d failed: %.300s", i, resp)
		}
	}
}

// recordHead reads a run record's id and status, which come before its
// stages, without decoding the rest.
func recordHead(b []byte) (id, status string, err error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil {
		return "", "", err
	}
	for dec.More() && (id == "" || status == "") {
		t, err := dec.Token()
		if err != nil {
			return "", "", err
		}
		key, _ := t.(string)
		switch key {
		case "id", "status":
			var v string
			if err := dec.Decode(&v); err != nil {
				return "", "", err
			}
			if key == "id" {
				id = v
			} else {
				status = v
			}
		default:
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return "", "", err
			}
		}
	}
	if id == "" || status == "" {
		return "", "", fmt.Errorf("run record without id or status: %.200s", b)
	}
	return id, status, nil
}

func (r *remediate) op(s *service, i int) error {
	rec, err := r.submit(s, i)
	if err != nil {
		return err
	}
	if len(r.kept) < remKeep {
		r.kept = append(r.kept, rec)
	}
	return nil
}

func (r *remediate) traceOp(s *service, i int, tr *tracer) error {
	var body []byte
	var err error
	_ = tr.do("client.serve", func() error { body, err = r.submit(s, i); return nil })
	if err != nil {
		return err
	}
	if len(r.kept) < remKeep {
		r.kept = append(r.kept, body)
	}
	var spec pipeline.Spec
	err = tr.do("serve.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(r.specBody(i)))
		dec.DisallowUnknownFields()
		return dec.Decode(&spec)
	})
	if err != nil {
		return err
	}
	var rec pipeline.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return err
	}
	_ = tr.do("serve.encode", func() error { _, err := json.MarshalIndent(&rec, "", "  "); return err })
	_ = tr.do("store.save", func() error {
		payload, err := json.Marshal(&rec)
		if err != nil {
			return err
		}
		return r.saveStore.Save(store.KindPipelines, rec.ID, payload)
	})
	var sum float64
	for _, st := range rec.Stages {
		name := st.Stage
		if name == "re-audit" {
			name = "audit"
		}
		if name == "ldp-privatize" {
			name = "privatize"
		}
		r.stageMS[name] += st.ElapsedMillis
		sum += st.ElapsedMillis
	}
	r.overheadMS += rec.ElapsedMillis - sum
	r.tracedRuns++

	// Replay the first four stages (train, audit, mitigate, re-audit)
	// through core with the pipeline's seed, budget and name; their
	// reports must be the served ones, byte for byte.
	d := i % remDatasets
	var f *frame.Frame
	_ = tr.do("dataset.resolve", func() error {
		var ok bool
		f, _, ok = s.datasets.ResolveAs("default", r.refs[d])
		if !ok {
			return fmt.Errorf("dataset %s not resident", r.refs[d])
		}
		return nil
	})
	if f == nil {
		return fmt.Errorf("dataset %s not resident", r.refs[d])
	}
	budget, err := privacy.NewBudget(spec.Epsilon, 0)
	if err != nil {
		return err
	}
	id := tr.begin("pipeline.replay")
	pipe, err := core.New(core.Config{Name: spec.Name, Policy: serve.DefaultPolicy(), Seed: spec.Seed, Actor: "rds-pipeline"})
	if err != nil {
		tr.end(id)
		return err
	}
	pipe.AttachBudget(budget)
	if err := tr.do("core.load", func() error { return pipe.Load(spec.DatasetRef, f) }); err != nil {
		tr.end(id)
		return err
	}
	first, err := trainAudit(tr, pipe, core.MitigateNone)
	if err != nil {
		tr.end(id)
		return err
	}
	mitigated, err := trainAudit(tr, pipe, core.MitigateReweigh)
	tr.end(id)
	if err != nil {
		return err
	}
	for k, rep := range map[int]*core.FACTReport{1: first, 3: mitigated} {
		var det struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(rec.Stages[k].Detail, &det); err != nil {
			return err
		}
		if err := sameReport(det.Report, rep); err != nil {
			return fmt.Errorf("pipeline op %d stage %d: %w", i, k, err)
		}
	}
	_, err = replayLayers(tr, f, spec.Seed, 0, true)
	return err
}

// runRecord is the part of GET /v1/pipelines/{id} the checks read.
type runRecord struct {
	Status string `json:"status"`
	Stages []struct {
		Index  int             `json:"index"`
		Stage  string          `json:"stage"`
		Status string          `json:"status"`
		Detail json.RawMessage `json:"detail"`
	} `json:"stages"`
}

// checkRun checks one finished run over a rows-row dataset at
// privacy level eps.
func checkRun(rec *runRecord, rows int, eps float64) error {
	if rec.Status != "done" {
		return fmt.Errorf("run ended %q", rec.Status)
	}
	if len(rec.Stages) != len(remStages) {
		return fmt.Errorf("run has %d stages, want %d", len(rec.Stages), len(remStages))
	}
	for k, st := range rec.Stages {
		if st.Stage != remStages[k] || st.Index != k || st.Status != "done" {
			return fmt.Errorf("stage %d is %q (index %d, %s), want %q done", k, st.Stage, st.Index, st.Status, remStages[k])
		}
	}
	var audit, reaudit struct {
		DI *float64 `json:"disparate_impact"`
	}
	if err := json.Unmarshal(rec.Stages[1].Detail, &audit); err != nil {
		return err
	}
	if err := json.Unmarshal(rec.Stages[3].Detail, &reaudit); err != nil {
		return err
	}
	if audit.DI == nil || reaudit.DI == nil || *reaudit.DI <= *audit.DI {
		return fmt.Errorf("mitigated re-audit disparate impact %v does not exceed the first audit's %v", deref(reaudit.DI), deref(audit.DI))
	}
	var priv struct {
		Epsilon  float64 `json:"epsilon"`
		EpsSpent float64 `json:"eps_spent"`
		Keep     float64 `json:"keep_probability"`
		Flipped  float64 `json:"flipped_fraction"`
	}
	if err := json.Unmarshal(rec.Stages[4].Detail, &priv); err != nil {
		return err
	}
	keep := rrKeep(eps)
	if !closeTo(priv.Keep, keep, 1e-12) || priv.Epsilon != eps || !closeTo(priv.EpsSpent, eps, 1e-12) {
		return fmt.Errorf("privatize keep %v eps %v spent %v, want keep %v eps %v", priv.Keep, priv.Epsilon, priv.EpsSpent, keep, eps)
	}
	if lo, hi := binomialBand(rows, 1-keep, remBandZ); priv.Flipped < lo || priv.Flipped > hi {
		return fmt.Errorf("flip rate %v outside the binomial band [%v, %v]", priv.Flipped, lo, hi)
	}
	return nil
}

func deref(p *float64) any {
	if p == nil {
		return nil
	}
	return *p
}

func (r *remediate) check(*service) (int, error) {
	for k, b := range r.kept {
		var rec runRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return 0, err
		}
		if err := checkRun(&rec, remRows, remEpsilon); err != nil {
			return 0, fmt.Errorf("run %d: %w", k, err)
		}
	}
	return 0, nil
}

func (r *remediate) layers(_ *service, ops int) map[string]float64 {
	out := map[string]float64{}
	n := float64(max(r.tracedRuns, 1))
	for _, name := range []string{"train", "audit", "mitigate", "privatize", "retrain"} {
		out["pipeline."+name+"_ms"] = r.stageMS[name] / n
	}
	out["pipeline.overhead_ms"] = r.overheadMS / n
	return out
}

func (r *remediate) summary() string {
	return fmt.Sprintf("%d datasets of %d rows by ref; checked %d runs", remDatasets, remRows, len(r.kept))
}
