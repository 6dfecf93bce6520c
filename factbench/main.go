// Command factbench is the end-to-end benchmark of the FACT audit
// service. It drives the service the way a client does, through the
// HTTP handlers cmd/rds-serve mounts (served in-process, no socket),
// from one closed-loop client, on one of three workloads:
//
//	audit-inline-2k     POST /v1/audit with a 2,000-row CSV inline
//	remediate-ref-20k   POST /v1/pipelines by dataset_ref (20,000 rows), poll to the end
//	monitor-slide-100k  POST /v1/monitors/{id}/ingest, one 10,000-row slide per op
//
// Usage (from the repository root; factbench/run.sh builds and runs it):
//
//	factbench --workload NAME --seed N --seconds S --trace 0|1
//	factbench --steady N --seconds S [--seed N]
//
// With --trace 0 the last line of standard output is a JSON object with
// the run's end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run over the same inputs, and the spans are
// written to .bench_build/. --steady runs every workload N times in
// fresh processes, alternating their order, and prints each end-to-end
// metric's median, quartiles and range against its bound in
// BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric with its unit.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run, on every workload. A layer
// that a workload's ops never call reads 0 on that workload.
var perLayer = []metricDef{
	{"frame.parse_ms", "ms", "lower"},
	{"frame.parse_alloc_mb", "MB", "lower"},
	{"frame.hash_ms", "ms", "lower"},
	{"serve.decode_ms", "ms", "lower"},
	{"serve.encode_ms", "ms", "lower"},
	{"serve.run_audit_ms", "ms", "lower"},
	{"serve.submit_wait_ms", "ms", "lower"},
	{"core.load_ms", "ms", "lower"},
	{"core.train_ms", "ms", "lower"},
	{"core.audit_ms", "ms", "lower"},
	{"ml.from_frame_ms", "ms", "lower"},
	{"ml.train_logistic_ms", "ms", "lower"},
	{"ml.train_logistic_alloc_mb", "MB", "lower"},
	{"ml.predict_ms", "ms", "lower"},
	{"explain.surrogate_ms", "ms", "lower"},
	{"explain.surrogate_alloc_mb", "MB", "lower"},
	{"fairness.evaluate_ms", "ms", "lower"},
	{"fairness.reweigh_ms", "ms", "lower"},
	{"pipeline.train_ms", "ms", "lower"},
	{"pipeline.audit_ms", "ms", "lower"},
	{"pipeline.mitigate_ms", "ms", "lower"},
	{"pipeline.privatize_ms", "ms", "lower"},
	{"pipeline.retrain_ms", "ms", "lower"},
	{"pipeline.overhead_ms", "ms", "lower"},
	{"store.save_ms", "ms", "lower"},
	{"dataset.put_ms", "ms", "lower"},
	{"dataset.resolve_us", "us", "lower"},
	{"dataset.state_hit_ratio", "ratio", "higher"},
	{"dataset.state_evictions", "count/op", "lower"},
	{"monitor.ingest_ms", "ms", "lower"},
	{"monitor.chunk_score_ms", "ms", "lower"},
	{"monitor.chunk_score_alloc_mb", "MB", "lower"},
	{"monitor.audits_per_window", "ratio", "lower"},
	{"monitor.detect_drift_ms", "ms", "lower"},
	{"monitor.profile_build_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// workloadNames lists the workloads in their default order.
var workloadNames = []string{"audit-inline-2k", "remediate-ref-20k", "monitor-slide-100k"}

// workload is one benchmark workload: its inputs are generated from the
// seed when it is constructed, before anything is timed.
type workload interface {
	// roundOps is the op count of one round; a timed run attempts
	// whole rounds, so every run holds the same mix of ops.
	roundOps() int
	// minOps is the fewest ops a timed run holds: a run goes on past
	// --seconds, in whole rounds, until it has that many. It is at
	// least 100, so that the 90th percentile has ten samples beyond
	// it, and rss_peak_mb is the peak over exactly these first ops.
	minOps() int
	// setup does the service's own set-up work on a fresh service
	// (uploads, registrations, pre-fill). tr is nil when untraced.
	setup(s *service, tr *tracer) error
	// op runs op i untraced; an error is a failed op.
	op(s *service, i int) error
	// traceOp runs op i and replays it through the layers' calls
	// inside spans.
	traceOp(s *service, i int, tr *tracer) error
	// check verifies the outputs kept during the run against the
	// oracles and the properties the method must have. It returns how
	// many ops gave an output with a known fault of the service (each
	// a failed op); any other disagreement is an error.
	check(s *service) (failed int, err error)
	// layers returns the per-layer figures that do not come from
	// spans (stage timings the service reports, cache counters).
	layers(s *service, ops int) map[string]float64
	// summary is one human-readable line about the run's make-up.
	summary() string
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "audit-inline-2k":
		return newAuditInline(seed), nil
	case "remediate-ref-20k":
		return newRemediate(seed), nil
	case "monitor-slide-100k":
		return newMonitorSlide(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// options configure one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	ops      int // fixed op count instead of a timed run (0 = timed)
	// setupReps is the fewest set-ups of a run; setupBudget is the
	// set-up time below which more are made (up to maxSetupReps).
	setupReps   int
	setupBudget time.Duration
	traceOut    string
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run executes one run and returns its result; log receives the
// human-readable report.
func run(o options, log io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	return runWorkload(w, o, log)
}

// maxSetupReps caps the set-ups of one run: a workload whose set-up
// takes microseconds is set up this many times.
const maxSetupReps = 200

// runWorkload sets w up at least setupReps times, and more while the
// set-ups total under setupBudget, keeping the last; then it runs its
// ops, checks its outputs and computes the metrics.
func runWorkload(w workload, o options, log io.Writer) (*result, error) {
	var err error
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups []float64
	total := 0.0
	setUp := func(tr *tracer) (*service, error) {
		// Each set-up starts from the same resident set.
		debug.FreeOSMemory()
		start := time.Now()
		s, err := newService()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.setup(s, tr); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
		return s, nil
	}
	for len(setups)+1 < o.setupReps || (len(setups)+1 < maxSetupReps && total < o.setupBudget.Seconds()) {
		s, err := setUp(nil)
		if err != nil {
			return nil, err
		}
		s.close()
	}
	// Only the kept set-up is traced.
	s, err := setUp(tr)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// Return the set-ups' garbage to the OS, so that every timed
	// section starts from the same resident set.
	debug.FreeOSMemory()
	rss := newRSSSampler()
	defer rss.close()
	var lats []float64
	attempted, failed := 0, 0
	var firstErr error
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	alloc0, cpu0, t0 := ms0.TotalAlloc, cpuTime(), time.Now()
	for done := false; !done; {
		for k := 0; k < w.roundOps(); k++ {
			i := attempted
			start := time.Now()
			if tr != nil {
				tr.setOp(i)
				err = w.traceOp(s, i, tr)
			} else {
				err = w.op(s, i)
			}
			lats = append(lats, ms(time.Since(start)))
			attempted++
			if err != nil {
				failed++
				if firstErr == nil {
					firstErr = err
				}
			}
			if attempted <= w.minOps() {
				rss.sample()
			}
			if o.ops > 0 && attempted >= o.ops {
				done = true
				break
			}
		}
		// The traced mode reports no percentile or RSS, so it needs no
		// minimum op count.
		if o.ops == 0 && time.Since(t0) >= o.seconds && (tr != nil || attempted >= w.minOps()) {
			done = true
		}
	}
	elapsed := time.Since(t0)
	cpu := cpuTime() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	alloc := ms1.TotalAlloc - alloc0
	if tr != nil {
		tr.setOp(-1)
	}

	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	if firstErr != nil {
		fmt.Fprintf(log, "first failed op: %v\n", firstErr)
	}
	if bad, err := w.check(s); err != nil {
		fmt.Fprintf(log, "CHECK FAILED: %v\n", err)
	} else {
		res.Correct = true
		res.Failed += bad
	}
	fmt.Fprintf(log, "%s: seed %d, %d ops in %.2fs (%d failed); %s\n",
		o.workload, o.seed, attempted, elapsed.Seconds(), res.Failed, w.summary())
	n := float64(attempted)
	if tr == nil {
		vals := map[string]float64{
			"ops_per_s":       n / elapsed.Seconds(),
			"latency_p50_ms":  percentile(lats, 0.5),
			"latency_p90_ms":  percentile(lats, 0.9),
			"cpu_ms_per_op":   ms(cpu) / n,
			"alloc_mb_per_op": float64(alloc) / 1e6 / n,
			"rss_peak_mb":     float64(rss.peak) / 1e6,
			"setup_s":         median(setups),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{vals[m.name], m.unit}
		}
		fmt.Fprintf(log, "%d set-ups, %.6f-%.6f s; %d GC cycles, %.1f ms GC pause in the timed section\n",
			len(setups), slices.Min(setups), slices.Max(setups), ms1.NumGC-ms0.NumGC, ms(time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs)))
	} else {
		vals := layerValues(tr, w.layers(s, attempted), attempted)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOut{vals[m.name], m.unit}
		}
		tr.printSelf(log, attempted)
		if o.traceOut != "" {
			if err := tr.write(o.traceOut); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Fprintf(log, "spans written to %s\n", o.traceOut)
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(log, "%-28s %14.6f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// layerValues turns the spans and the workload's own figures into the
// per-layer metrics: per-op means for the layers an op calls, per-call
// means for the set-up layers (dataset.put, monitor.profile_build).
func layerValues(tr *tracer, extra map[string]float64, ops int) map[string]float64 {
	st := tr.stats()
	n := float64(max(ops, 1))
	out := map[string]float64{}
	for k, v := range extra {
		out[k] = v
	}
	perOp := func(span string) float64 {
		if s := st[span]; s != nil {
			return ms(s.opTotal) / n
		}
		return 0
	}
	allocPerOp := func(span string) float64 {
		if s := st[span]; s != nil {
			return float64(s.opAlloc) / 1e6 / n
		}
		return 0
	}
	perCall := func(span string) float64 {
		if s := st[span]; s != nil && s.calls > 0 {
			return ms(s.total) / float64(s.calls)
		}
		return 0
	}
	for _, m := range perLayer {
		if _, ok := out[m.name]; ok {
			continue
		}
		switch {
		case m.name == "dataset.put_ms" || m.name == "monitor.profile_build_ms":
			out[m.name] = perCall(strings.TrimSuffix(m.name, "_ms"))
		case m.name == "dataset.resolve_us":
			out[m.name] = perOp("dataset.resolve") * 1000
		case m.name == "trace.overhead_ms":
			out[m.name] = ms(tr.opOverhead) / n
		case strings.HasSuffix(m.name, "_alloc_mb"):
			out[m.name] = allocPerOp(strings.TrimSuffix(m.name, "_alloc_mb"))
		case strings.HasSuffix(m.name, "_ms"):
			out[m.name] = perOp(strings.TrimSuffix(m.name, "_ms"))
		default:
			out[m.name] = 0
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed         = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds      = flag.Int("seconds", 30, "length of the timed section, in seconds (whole rounds are completed)")
		trace        = flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
		steady       = flag.Int("steady", 0, "steadiness mode: run every workload this many times, in fresh processes")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*steady, *seed, *seconds, "BENCHMARK.json", os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "factbench:", err)
			os.Exit(1)
		}
		return
	}
	if *workloadName == "" {
		fmt.Fprintln(os.Stderr, "factbench: --workload is required")
		flag.Usage()
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "factbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{
		workload:    *workloadName,
		seed:        *seed,
		seconds:     time.Duration(*seconds) * time.Second,
		trace:       *trace == 1,
		setupReps:   5,
		setupBudget: 250 * time.Millisecond,
	}
	if o.trace {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("factbench-trace-%s-seed%d.json", o.workload, o.seed))
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "factbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "factbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
