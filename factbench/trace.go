package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, the op it belongs to,
// the span that caused it (-1 for an op's top-level calls), its
// interval relative to the trace start, and the heap bytes allocated
// while it was open.
type span struct {
	Name       string `json:"name"`
	Op         int    `json:"op"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer records spans in memory; they are written out when the run
// ends. It is used from the client goroutine only. The time the tracer
// spends on its own bookkeeping is accumulated per op, which is the
// latency tracing adds to a traced op over an untraced one.
type tracer struct {
	base  time.Time
	op    int
	spans []span
	open  []int
	// opOverhead is the tracer's own time inside ops.
	opOverhead time.Duration
}

func newTracer() *tracer { return &tracer{base: time.Now(), op: -1} }

// setOp makes later spans belong to op (-1 marks set-up work).
func (t *tracer) setOp(op int) { t.op = op }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	in := time.Now()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent})
	t.open = append(t.open, id)
	sp := &t.spans[id]
	sp.AllocBytes = allocBytes()
	now := time.Now()
	sp.StartNS = int64(now.Sub(t.base))
	if t.op >= 0 {
		t.opOverhead += now.Sub(in)
	}
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	out := time.Now()
	sp := &t.spans[id]
	sp.EndNS = int64(out.Sub(t.base))
	sp.AllocBytes = allocBytes() - sp.AllocBytes
	t.open = t.open[:len(t.open)-1]
	if t.op >= 0 {
		t.opOverhead += time.Since(out)
	}
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls   int
	total   time.Duration // inclusive
	self    time.Duration // minus the time covered by child spans
	alloc   uint64
	opTotal time.Duration
	opAlloc uint64
}

// stats folds the spans by name. A span's self time is its duration
// minus that of its direct children (children of one span never
// overlap: the client runs them one after another).
func (t *tracer) stats() map[string]*layerStat {
	child := make([]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += time.Duration(sp.EndNS - sp.StartNS)
		}
	}
	out := map[string]*layerStat{}
	for i, sp := range t.spans {
		st := out[sp.Name]
		if st == nil {
			st = &layerStat{}
			out[sp.Name] = st
		}
		d := time.Duration(sp.EndNS - sp.StartNS)
		st.calls++
		st.total += d
		st.self += d - child[i]
		st.alloc += sp.AllocBytes
		if sp.Op >= 0 {
			st.opTotal += d
			st.opAlloc += sp.AllocBytes
		}
	}
	return out
}

// printSelf writes each layer's self time, per op, largest first.
func (t *tracer) printSelf(w io.Writer, ops int) {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(w, "%-24s %8s %14s %14s %12s\n", "layer", "calls", "self ms/op", "incl ms/op", "alloc MB/op")
	for _, n := range names {
		s := st[n]
		per := float64(max(ops, 1))
		fmt.Fprintf(w, "%-24s %8d %14.3f %14.3f %12.3f\n", n, s.calls,
			ms(s.self)/per, ms(s.total)/per, float64(s.alloc)/1e6/per)
	}
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
