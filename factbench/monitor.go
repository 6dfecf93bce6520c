package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"github.com/responsible-data-science/rds/internal/dataset"
	"github.com/responsible-data-science/rds/internal/frame"
	"github.com/responsible-data-science/rds/internal/monitor"
	"github.com/responsible-data-science/rds/internal/store/memory"
	"github.com/responsible-data-science/rds/internal/stream"
)

// Make-up of the monitor-slide-100k inputs.
const (
	monBaselineRows = 100000
	monSlideRows    = 10000
	monWindowSlides = 10 // a window is 10 slides: 100,000 rows
	monSlideMS      = 1000
	monBias         = 1.0
	monGroupB       = 0.35
	// Each round of monRound slides carries one segment of
	// monSegment slides whose protected-group share is monShiftedB.
	// A window holding 6 or more of them breaches the drift
	// thresholds (group PSI ~0.24 > 0.2); one holding 5 or fewer does
	// not (~0.16), so 5 windows in a round breach and are audited.
	monRound      = 100
	monSegStart   = 40
	monSegment    = 6
	monShiftedB   = 0.75
	monAuditEvery = 50
	monHistory    = 128
	// Slides are a distinct row plus one of a pool of 9,999-row
	// blocks, so every slide's content (and chunk hash) is new.
	monBasePool = 16
	monUnique   = 8192
	// monPrefill slides are ingested in set-up: a full window and the
	// slide that closes it.
	monPrefill = monWindowSlides + 1
)

// monitorSlide is the monitor-slide-100k workload: a 100,000-row
// baseline is uploaded and pinned by a monitor with sliding windows of
// 10 slides; each op ingests one 10,000-row slide as CSV and closes
// exactly one window.
type monitorSlide struct {
	baseline               *creditData
	baselineCSV            string
	basePool, shiftPool    []*creditData
	poolEsc                []string // escaped CSV rows of basePool then shiftPool
	uniqBase, uniqShift    *creditData
	uniqBaseEsc, uniqShEsc []string
	headerEsc              string

	id                    string
	lastWindows, lastRows uint64
	violations            int
	firstViolation        string
	startStatus           monStatus
	endStatus             monStatus
	startCache, endCache  dataset.StateSnapshot
	checkedWindows        int
	history               []byte
	// maxPSIBelow and minPSIAt are the highest group PSI of a window
	// with fewer than monSegment shifted slides and the lowest of one
	// with monSegment: the margin around the 0.2 threshold.
	maxPSIBelow, minPSIAt float64

	// traced-mode state
	profile *monitor.BaselineProfile
	scorer  *monitor.ChunkScorer
	ring    []monitor.Chunk
}

// monStatus is the part of a monitor's status the workload reads.
type monStatus struct {
	ID      string `json:"id"`
	Rows    uint64 `json:"rows_ingested"`
	Windows uint64 `json:"windows"`
	Audits  uint64 `json:"audits"`
}

func newMonitorSlide(seed uint64) *monitorSlide {
	m := &monitorSlide{}
	sub := func(k uint64) int64 { return int64(mix64(seed*1000 + 700 + k)) }
	m.baseline = genCredit(creditSpec{rows: monBaselineRows, bias: monBias, groupB: monGroupB, seed: sub(0)})
	m.baselineCSV = m.baseline.csv(0, monBaselineRows)
	for q := 0; q < monBasePool; q++ {
		m.basePool = append(m.basePool, genCredit(creditSpec{rows: monSlideRows - 1, bias: monBias, groupB: monGroupB, seed: sub(10 + uint64(q))}))
	}
	for q := 0; q < monSegment; q++ {
		m.shiftPool = append(m.shiftPool, genCredit(creditSpec{rows: monSlideRows - 1, bias: monBias, groupB: monShiftedB, seed: sub(100 + uint64(q))}))
	}
	for _, d := range append(append([]*creditData(nil), m.basePool...), m.shiftPool...) {
		m.poolEsc = append(m.poolEsc, escapeCSVRows(d.csv(0, d.rows())))
	}
	m.uniqBase = genCredit(creditSpec{rows: monUnique, bias: monBias, groupB: monGroupB, seed: sub(1)})
	m.uniqShift = genCredit(creditSpec{rows: monUnique, bias: monBias, groupB: monShiftedB, seed: sub(2)})
	for u := 0; u < monUnique; u++ {
		m.uniqBaseEsc = append(m.uniqBaseEsc, escapeCSVRows(m.uniqBase.csv(u, u+1)))
		m.uniqShEsc = append(m.uniqShEsc, escapeCSVRows(m.uniqShift.csv(u, u+1)))
	}
	head, _ := json.Marshal(strings.Join(creditCols, ",") + "\n")
	m.headerEsc = string(head[1 : len(head)-1])
	return m
}

// escapeCSVRows drops a CSV document's header line and JSON-escapes
// the rest (string contents only, no quotes).
func escapeCSVRows(csv string) string {
	_, rows, _ := strings.Cut(csv, "\n")
	b, _ := json.Marshal(rows)
	return string(b[1 : len(b)-1])
}

// shifted reports whether stream slide j belongs to a shifted segment.
func shifted(j int) bool {
	p := j % monRound
	return p >= monSegStart && p < monSegStart+monSegment
}

// slideParts returns slide j's distinct first row and its pool block.
func (m *monitorSlide) slideParts(j int) (row, block *creditData, u int, rowEsc, blockEsc string) {
	u = j % monUnique
	p := j % monRound
	if shifted(j) {
		q := p - monSegStart
		return m.uniqShift, m.shiftPool[q], u, m.uniqShEsc[u], m.poolEsc[monBasePool+q]
	}
	q := p % monBasePool
	return m.uniqBase, m.basePool[q], u, m.uniqBaseEsc[u], m.poolEsc[q]
}

// body is the ingest request for slide j, stamped at j seconds.
func (m *monitorSlide) body(j int) io.Reader {
	_, _, _, rowEsc, blockEsc := m.slideParts(j)
	return io.MultiReader(
		strings.NewReader(`{"time_ms":`+strconv.Itoa(j*monSlideMS)+`,"csv":"`+m.headerEsc),
		strings.NewReader(rowEsc), strings.NewReader(blockEsc), strings.NewReader(`"}`))
}

func (m *monitorSlide) roundOps() int { return monRound }

// slide j of the stream is sent by op j - monPrefill.
func opSlide(i int) int { return i + monPrefill }

func (m *monitorSlide) ingest(s *service, j int) (monStatus, error) {
	code, resp := s.call(http.MethodPost, "/v1/monitors/"+m.id+"/ingest", "application/json", m.body(j))
	var st monStatus
	if code != http.StatusOK {
		return st, fmt.Errorf("ingest slide %d: HTTP %d: %.200s", j, code, resp)
	}
	err := json.Unmarshal(resp, &st)
	return st, err
}

func (m *monitorSlide) minOps() int { return 3 * monRound }

// setup uploads the baseline, registers the monitor against it (which
// audits the baseline and builds its drift profile) and ingests the
// first full window plus the slide that closes it.
func (m *monitorSlide) setup(s *service, tr *tracer) error {
	m.violations, m.firstViolation, m.history = 0, "", nil
	ref, err := s.upload("stream-baseline", m.baselineCSV)
	if err != nil {
		return err
	}
	reg := fmt.Sprintf(`{"name":"stream","baseline_ref":%q,"window_ms":%d,"slide_ms":%d,"audit_every":%d,"history":%d}`,
		ref, monWindowSlides*monSlideMS, monSlideMS, monAuditEvery, monHistory)
	code, resp := s.call(http.MethodPost, "/v1/monitors", "application/json", strings.NewReader(reg))
	if code != http.StatusCreated {
		return fmt.Errorf("register monitor: HTTP %d: %.300s", code, resp)
	}
	var st monStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return err
	}
	m.id = st.ID
	for j := 0; j < monPrefill; j++ {
		if st, err = m.ingest(s, j); err != nil {
			return err
		}
	}
	if st.Windows != 1 {
		return fmt.Errorf("pre-fill closed %d windows, want 1", st.Windows)
	}
	m.lastWindows, m.lastRows = st.Windows, st.Rows
	m.startStatus, m.startCache = st, s.chunkStates.Metrics()
	if tr != nil {
		return m.traceSetup(tr)
	}
	return nil
}

// traceSetup times the baseline's parse, registry put and profile
// build once more, outside the service, and readies a chunk scorer of
// its own over the pre-fill slides for the traced ops.
func (m *monitorSlide) traceSetup(tr *tracer) error {
	var base *frame.Frame
	if err := tr.do("frame.parse", func() (err error) { base, err = frame.ReadCSV(strings.NewReader(m.baselineCSV)); return err }); err != nil {
		return err
	}
	reg := dataset.NewRegistry(dataset.DefaultBudgetBytes)
	if err := reg.AttachStore(memory.New()); err != nil {
		return err
	}
	if err := tr.do("dataset.put", func() error { _, err := reg.PutAs("default", "stream-baseline", base); return err }); err != nil {
		return err
	}
	err := tr.do("monitor.profile_build", func() (err error) {
		m.profile, err = monitor.NewBaselineProfile(base, monitor.DriftConfig{})
		return err
	})
	if err != nil {
		return err
	}
	if m.scorer, err = monitor.NewChunkScorer(m.profile, dataset.NewStateCache(dataset.DefaultStateBudgetBytes)); err != nil {
		return err
	}
	m.ring = m.ring[:0]
	for j := 0; j < monPrefill; j++ {
		f, err := m.slideFrame(j)
		if err != nil {
			return err
		}
		m.ring = append(m.ring, monitor.Chunk{Rows: f, Hash: f.Hash()})
	}
	if _, err := m.scorer.Score(m.ring[:monWindowSlides]); err != nil {
		return err
	}
	m.ring = m.ring[1:]
	return nil
}

// slideFrame parses slide j's CSV the way the ingest handler does.
func (m *monitorSlide) slideFrame(j int) (*frame.Frame, error) {
	var wire monitor.IngestWire
	if err := json.NewDecoder(m.body(j)).Decode(&wire); err != nil {
		return nil, err
	}
	return frame.ReadCSVString(wire.CSV)
}

// account checks that the op closed exactly one window and that the
// monitor counted every row sent.
func (m *monitorSlide) account(j int, st monStatus) {
	if st.Windows != m.lastWindows+1 || st.Rows != m.lastRows+monSlideRows {
		m.violations++
		if m.firstViolation == "" {
			m.firstViolation = fmt.Sprintf("slide %d: windows %d -> %d, rows %d -> %d", j, m.lastWindows, st.Windows, m.lastRows, st.Rows)
		}
	}
	m.lastWindows, m.lastRows = st.Windows, st.Rows
	m.endStatus = st
}

func (m *monitorSlide) op(s *service, i int) error {
	j := opSlide(i)
	st, err := m.ingest(s, j)
	if err != nil {
		return err
	}
	m.account(j, st)
	return nil
}

func (m *monitorSlide) traceOp(s *service, i int, tr *tracer) error {
	j := opSlide(i)
	mon, ok := s.monitors.Get(m.id)
	if !ok {
		return fmt.Errorf("monitor %s gone", m.id)
	}
	var wire monitor.IngestWire
	err := tr.do("serve.decode", func() error {
		dec := json.NewDecoder(m.body(j))
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
	var hash string
	_ = tr.do("frame.hash", func() error { hash = f.Hash(); return nil })
	arrivals, err := stream.FrameArrivals(f, f.NumRows(), wire.TimeMS, 0)
	if err != nil {
		return err
	}
	before := mon.Status()
	if err := tr.do("monitor.ingest", func() error { return mon.Ingest(arrivals...) }); err != nil {
		return err
	}
	var st monitor.Summary
	_ = tr.do("serve.encode", func() error {
		st = mon.Status()
		_, err := json.MarshalIndent(st, "", "  ")
		return err
	})
	m.account(j, monStatus{ID: st.ID, Rows: st.RowsIngested, Windows: st.Windows, Audits: st.Audits})

	// The window this slide closed is the ring's ten slides.
	var inc, full *monitor.DriftReport
	err = tr.do("monitor.chunk_score", func() (err error) { inc, err = m.scorer.Score(m.ring); return err })
	if err != nil {
		return err
	}
	var window *frame.Frame
	err = tr.do("monitor.detect_drift", func() error {
		window = m.ring[0].Rows
		for _, ch := range m.ring[1:] {
			var err error
			if window, err = window.Append(ch.Rows); err != nil {
				return err
			}
		}
		var err error
		full, err = monitor.DetectDriftProfiled(m.profile, window)
		return err
	})
	if err != nil {
		return err
	}
	if inc.MaxPSI != full.MaxPSI || inc.MaxKS != full.MaxKS || inc.Breached != full.Breached {
		return fmt.Errorf("slide %d: incremental and rescanned drift disagree", j)
	}
	if st.Audits > before.Audits {
		// The window was audited: replay the audit's layers on it.
		name := fmt.Sprintf("stream/window-%05d", j-monWindowSlides)
		shards := s.engine.Config().Shards
		if _, err := replayAudit(tr, name, window, 1, shards); err != nil {
			return err
		}
		if _, err := replayLayers(tr, window, 1, shards, false); err != nil {
			return err
		}
	}
	m.ring = append(m.ring[1:], monitor.Chunk{Rows: f, Hash: hash})
	return nil
}

// histEntry is the part of a monitor history entry the checks read.
type histEntry struct {
	Window   int64  `json:"window"`
	Rows     int    `json:"rows"`
	Baseline bool   `json:"baseline"`
	Error    string `json:"error"`
	Drift    *struct {
		Columns []struct {
			Column   string  `json:"column"`
			PSI      float64 `json:"psi"`
			KS       float64 `json:"ks"`
			Breached bool    `json:"breached"`
		} `json:"columns"`
		Breached bool `json:"breached"`
	} `json:"drift"`
}

// overlap counts window w's slides (w .. w+9) that belong to a shifted
// segment.
func overlap(w int64) int {
	n := 0
	for j := int(w); j < int(w)+monWindowSlides; j++ {
		if shifted(j) {
			n++
		}
	}
	return n
}

// checkWindow checks one drift-scored window's entry: every column's
// breach flag follows the default thresholds (PSI 0.2, KS 0.15); a
// window of baseline-distributed slides does not breach; one where
// shifted slides are 6 or more of 10 does. want, when non-nil, holds
// the oracle's KS per numeric column and PSI per categorical column,
// which the entry must match to float rounding.
func checkWindow(e *histEntry, want map[string]float64) error {
	if e.Error != "" || e.Drift == nil {
		return fmt.Errorf("window %d: error %q, drift %v", e.Window, e.Error, e.Drift != nil)
	}
	if e.Rows != monWindowSlides*monSlideRows {
		return fmt.Errorf("window %d holds %d rows, want %d", e.Window, e.Rows, monWindowSlides*monSlideRows)
	}
	any := false
	for _, c := range e.Drift.Columns {
		if c.Breached != (c.PSI > 0.2 || c.KS > 0.15) {
			return fmt.Errorf("window %d column %s: breached=%v at PSI %v, KS %v", e.Window, c.Column, c.Breached, c.PSI, c.KS)
		}
		any = any || c.Breached
		if want == nil {
			continue
		}
		v, ok := want[c.Column]
		if !ok {
			return fmt.Errorf("window %d: unexpected column %s", e.Window, c.Column)
		}
		got, tol := c.KS, 1e-12
		if _, cat := map[string]bool{"group": true, "neighborhood": true}[c.Column]; cat {
			got, tol = c.PSI, 1e-9
		}
		if !closeTo(got, v, tol) {
			return fmt.Errorf("window %d column %s: service %v, oracle %v", e.Window, c.Column, got, v)
		}
	}
	if want != nil && len(e.Drift.Columns) != len(want) {
		return fmt.Errorf("window %d scored %d columns, want %d", e.Window, len(e.Drift.Columns), len(want))
	}
	if any != e.Drift.Breached {
		return fmt.Errorf("window %d: breached=%v but column flags say %v", e.Window, e.Drift.Breached, any)
	}
	switch k := overlap(e.Window); {
	case k == 0 && e.Drift.Breached:
		return fmt.Errorf("window %d of baseline-distributed slides breached", e.Window)
	case k >= monSegment && !e.Drift.Breached:
		return fmt.Errorf("window %d of %d shifted slides did not breach", e.Window, k)
	}
	return nil
}

// windowOracle computes, apart from the service, KS per numeric column
// and PSI per categorical column of window w against the baseline.
func (m *monitorSlide) windowOracle(w int64) map[string]float64 {
	num := map[string][]float64{}
	cat := map[string][]string{}
	for j := int(w); j < int(w)+monWindowSlides; j++ {
		row, block, u, _, _ := m.slideParts(j)
		for name, vals := range row.numeric() {
			num[name] = append(append(num[name], vals[u]), block.numeric()[name]...)
		}
		for name, vals := range row.categorical() {
			cat[name] = append(append(cat[name], vals[u]), block.categorical()[name]...)
		}
	}
	out := map[string]float64{}
	for name, vals := range m.baseline.numeric() {
		out[name] = ksTwoSample(vals, num[name])
	}
	for name, vals := range m.baseline.categorical() {
		out[name] = psiCategorical(vals, cat[name])
	}
	return out
}

// fetchHistory keeps the monitor's window history for the checks.
func (m *monitorSlide) fetchHistory(s *service) {
	code, resp := s.call(http.MethodGet, "/v1/monitors/"+m.id+"/history", "", nil)
	if code == http.StatusOK {
		m.history = resp
	}
	m.endCache = s.chunkStates.Metrics()
}

func (m *monitorSlide) check(s *service) (int, error) {
	m.fetchHistory(s)
	if m.violations > 0 {
		return 0, fmt.Errorf("%d ops did not close exactly one window or lost rows; first: %s", m.violations, m.firstViolation)
	}
	var h struct {
		History []histEntry `json:"history"`
	}
	if err := json.Unmarshal(m.history, &h); err != nil {
		return 0, fmt.Errorf("monitor history: %w", err)
	}
	// Oracle-check a few windows of each kind: baseline-distributed,
	// dominated by a shifted segment, partly shifted.
	quota := map[string]int{"base": 2, "dominated": 2, "partial": 1}
	m.checkedWindows = 0
	m.maxPSIBelow, m.minPSIAt = 0, math.Inf(1)
	for i := len(h.History) - 1; i >= 0; i-- {
		e := &h.History[i]
		if e.Baseline {
			continue
		}
		if e.Drift != nil {
			for _, c := range e.Drift.Columns {
				switch {
				case c.Column != sensitive:
				case overlap(e.Window) < monSegment:
					m.maxPSIBelow = math.Max(m.maxPSIBelow, c.PSI)
				default:
					m.minPSIAt = math.Min(m.minPSIAt, c.PSI)
				}
			}
		}
		kind := "partial"
		switch k := overlap(e.Window); {
		case k == 0:
			kind = "base"
		case k >= monSegment:
			kind = "dominated"
		}
		var want map[string]float64
		if quota[kind] > 0 {
			quota[kind]--
			want = m.windowOracle(e.Window)
			m.checkedWindows++
		}
		if err := checkWindow(e, want); err != nil {
			return 0, err
		}
	}
	if m.checkedWindows == 0 {
		return 0, fmt.Errorf("no drift-scored window in the history")
	}
	return 0, nil
}

func (m *monitorSlide) auditedShare() float64 {
	dw := float64(m.endStatus.Windows - m.startStatus.Windows)
	if dw == 0 {
		return 0
	}
	return float64(m.endStatus.Audits-m.startStatus.Audits) / dw
}

func (m *monitorSlide) layers(s *service, ops int) map[string]float64 {
	hits := float64(m.endCache.Hits - m.startCache.Hits)
	misses := float64(m.endCache.Misses - m.startCache.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	return map[string]float64{
		"dataset.state_hit_ratio":   ratio,
		"dataset.state_evictions":   float64(m.endCache.Evictions-m.startCache.Evictions) / float64(max(ops, 1)),
		"monitor.audits_per_window": m.auditedShare(),
	}
}

func (m *monitorSlide) summary() string {
	return fmt.Sprintf("baseline %d rows, slides of %d rows, windows of %d slides; audited share of windows %.4f; oracle-checked %d windows; group PSI at most %.4f below %d shifted slides, at least %.4f at %d",
		monBaselineRows, monSlideRows, monWindowSlides, m.auditedShare(), m.checkedWindows, m.maxPSIBelow, monSegment, m.minPSIAt, monSegment)
}
