package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/responsible-data-science/rds/internal/core"
	"github.com/responsible-data-science/rds/internal/explain"
	"github.com/responsible-data-science/rds/internal/fairness"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/ml"
	"github.com/responsible-data-science/rds/internal/rng"
	"github.com/responsible-data-science/rds/internal/serve"
)

// The default training spec every workload's requests leave implicit:
// label "approved", sensitive attribute "group", protected "B" against
// reference "A", 30% held out, 40 epochs.
const (
	target       = "approved"
	sensitive    = "group"
	protected    = "B"
	reference    = "A"
	testFraction = 0.3
	epochs       = 40
)

func defaultTrainSpec(m core.Mitigation) core.TrainSpec {
	return core.TrainSpec{Target: target, Sensitive: sensitive, Protected: protected, Reference: reference, Mitigation: m}
}

// replayAudit makes the calls serve.RunAudit makes — core.New, Load,
// Train, Audit — each in its span, under one serve.run_audit span.
func replayAudit(tr *tracer, name string, f *frame.Frame, seed uint64, shards int) (*core.FACTReport, error) {
	id := tr.begin("serve.run_audit")
	defer tr.end(id)
	var pipe *core.Pipeline
	err := tr.do("core.new", func() (err error) {
		pipe, err = core.New(core.Config{Name: name, Policy: serve.DefaultPolicy(), Seed: seed, Actor: "rds-serve", Shards: shards})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := tr.do("core.load", func() error { return pipe.Load(name, f) }); err != nil {
		return nil, err
	}
	return trainAudit(tr, pipe, core.MitigateNone)
}

// trainAudit trains the pipeline's model with mitigation m and audits
// it, in core.train and core.audit spans.
func trainAudit(tr *tracer, pipe *core.Pipeline, m core.Mitigation) (*core.FACTReport, error) {
	var model *core.TrainedModel
	err := tr.do("core.train", func() (err error) {
		model, err = pipe.Train(defaultTrainSpec(m))
		return err
	})
	if err != nil {
		return nil, err
	}
	var rep *core.FACTReport
	err = tr.do("core.audit", func() (err error) {
		rep, err = pipe.Audit(model)
		return err
	})
	return rep, err
}

// layerFigures are the outcomes of replayLayers that must agree with
// the report the service served for the same inputs.
type layerFigures struct {
	fidelity, disparateImpact float64
}

// replayLayers times the ml, explain and fairness layers on the same
// inputs and the same split core.Pipeline.Train draws (the first Perm
// of the pipeline's seed): feature encoding, optional reweighing,
// logistic training, prediction, the explanation surrogate and the
// fairness evaluation.
func replayLayers(tr *tracer, f *frame.Frame, seed uint64, shards int, reweigh bool) (layerFigures, error) {
	var ds *ml.Dataset
	err := tr.do("ml.from_frame", func() (err error) {
		ds, err = ml.FromFrame(f, target, sensitive)
		return err
	})
	if err != nil {
		return layerFigures{}, err
	}
	perm := rng.New(seed).Perm(ds.N())
	nTest := int(float64(ds.N()) * testFraction)
	testIdx, trainIdx := perm[:nTest], perm[nTest:]
	test, train := ds.Subset(testIdx), ds.Subset(trainIdx)
	groups := f.MustCol(sensitive)
	if reweigh {
		all := groups.Strings()
		trainGroups := make([]string, len(trainIdx))
		for i, idx := range trainIdx {
			trainGroups[i] = all[idx]
		}
		err := tr.do("fairness.reweigh", func() (err error) {
			train.Weights, err = fairness.Reweigh(train.Y, trainGroups)
			return err
		})
		if err != nil {
			return layerFigures{}, err
		}
	}
	var model *ml.Logistic
	err = tr.do("ml.train_logistic", func() (err error) {
		model, err = ml.TrainLogistic(train, ml.LogisticConfig{Epochs: epochs, Seed: seed})
		return err
	})
	if err != nil {
		return layerFigures{}, err
	}
	_ = tr.do("ml.predict", func() error {
		_ = ml.PredictProbaAll(model, test.X)
		return nil
	})
	// The labels fairness.evaluate reads, outside any span.
	preds := ml.PredictAll(model, test.X)
	var out layerFigures
	err = tr.do("explain.surrogate", func() error {
		sur, err := explain.FitSurrogate(model, test, 4)
		if err == nil {
			out.fidelity = sur.Fidelity
		}
		return err
	})
	if err != nil {
		return out, err
	}
	err = tr.do("fairness.evaluate", func() error {
		rep, err := fairness.EvaluateSeriesSharded(test.Y, preds, groups.Take(testIdx), protected, reference, shards)
		out.disparateImpact = rep.DisparateImpact
		return err
	})
	return out, err
}

// sameReport reports whether served, the JSON of a report as the
// service encoded it, holds exactly the bytes of rep's encoding (both
// compacted: the service indents its responses).
func sameReport(served json.RawMessage, rep *core.FACTReport) error {
	mine, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, served); err != nil {
		return err
	}
	if err := json.Compact(&b, mine); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("replayed report differs from the served one (%d vs %d bytes)", b.Len(), a.Len())
	}
	return nil
}
