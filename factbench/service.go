package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/pipeline"
	"github.com/responsible-data-science/rds/internal/serve"
	"github.com/responsible-data-science/rds/internal/store/memory"
	"github.com/responsible-data-science/rds/internal/tenant"
	"github.com/responsible-data-science/rds/internal/tenantapi"
)

// service is the FACT audit service wired the way cmd/rds-serve wires
// it with its default flags and no -state-dir: the engine, the dataset
// registry, the chunk-state cache, the monitoring plane and the
// pipelines plane over one in-memory store, behind serve.Handler. The
// benchmark calls the handler in-process, with no socket.
type service struct {
	handler     *serve.Handler
	engine      *serve.Engine
	datasets    *dataset.Registry
	chunkStates *dataset.StateCache
	monitors    *monitor.Registry
	// extra holds the stop functions of what a workload's set-up
	// started beside the service (the traced mode's replay engine).
	extra []func()
}

func newService() (*service, error) {
	st := memory.New()
	tenants := tenant.NewRegistry(tenant.Quotas{})
	if err := tenants.AttachStore(st); err != nil {
		return nil, err
	}
	engine := serve.NewEngine(serve.Config{TenantQuotas: tenants.Quotas})
	datasets := dataset.NewRegistry(dataset.DefaultBudgetBytes)
	datasets.UseQuotas(tenants.Quotas)
	chunkStates := dataset.NewStateCache(dataset.DefaultStateBudgetBytes)
	monitors, err := monitor.NewRegistry(monitor.RegistryConfig{
		Engine:      engine,
		Datasets:    datasets,
		ChunkStates: chunkStates,
		// The service logs alerts to stderr; the benchmark keeps the
		// formatting work and drops the bytes.
		Sinks:  []monitor.Sink{&monitor.LogSink{Logger: log.New(io.Discard, "", 0)}},
		Store:  st,
		Quotas: tenants.Quotas,
	})
	if err != nil {
		engine.Close()
		return nil, err
	}
	s := &service{engine: engine, datasets: datasets, chunkStates: chunkStates, monitors: monitors}
	if err := datasets.AttachStore(st); err != nil {
		s.close()
		return nil, err
	}
	if _, err := monitors.Restore(); err != nil {
		s.close()
		return nil, err
	}
	pipelines := pipeline.NewRegistry(engine, datasets, tenants.Quotas)
	if err := pipelines.AttachStore(st); err != nil {
		s.close()
		return nil, err
	}
	h := serve.NewHandler(engine)
	h.Datasets = dataset.NewHandler(datasets)
	h.Monitors = monitor.NewHandler(monitors)
	h.MonitorMetrics = func() any { return monitors.Metrics() }
	h.ChunkStates = chunkStates
	h.Pipelines = pipeline.NewHandler(pipelines)
	h.Tenants = &tenantapi.Handler{Tenants: tenants, Datasets: datasets, Monitors: monitors, Pipelines: pipelines}
	s.handler = h
	return s, nil
}

// close stops the monitoring plane and drains the engine.
func (s *service) close() {
	for _, stop := range s.extra {
		stop()
	}
	s.monitors.Close()
	s.engine.Close()
}

// call serves one request through the handler and returns the status
// code and the response body.
func (s *service) call(method, target, contentType string, body io.Reader) (int, []byte) {
	req := httptest.NewRequest(method, target, body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// upload loads a CSV document through POST /v1/datasets and returns
// its dataset_ref.
func (s *service) upload(name, csv string) (string, error) {
	code, body := s.call(http.MethodPost, "/v1/datasets?name="+name, "text/csv", strings.NewReader(csv))
	if code != http.StatusCreated {
		return "", fmt.Errorf("upload %s: HTTP %d: %s", name, code, body)
	}
	var meta struct {
		Ref string `json:"ref"`
	}
	if err := json.Unmarshal(body, &meta); err != nil || meta.Ref == "" {
		return "", fmt.Errorf("upload %s: no ref in %s", name, body)
	}
	return meta.Ref, nil
}
