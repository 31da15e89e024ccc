package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary, recorded from the
// benchmark's side: Name is <module>.<func>, Parent the ID of the
// span that caused it (0 for a root), Req the request ID shared by
// every span of one request.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

func (t *Tracer) add(sp Span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, sp)
	return sp.ID
}

// link parents server spans to the client span of the same request.
func (t *Tracer) link(server []Span) {
	t.mu.Lock()
	byReq := map[string]int64{}
	for _, sp := range t.spans {
		if sp.Parent == 0 && sp.Req != "" {
			byReq[sp.Req] = sp.ID
		}
	}
	t.mu.Unlock()
	for _, sp := range server {
		if p, ok := byReq[sp.Req]; ok {
			sp.Parent = p
			t.add(sp)
		}
	}
}

// selfTimes computes each span's self time: its duration minus the
// part of its interval that its children cover.
func (t *Tracer) selfTimes() map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]Span{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[int64]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := sp.Start
		for _, k := range kids {
			s, e := max(k.Start, cur), min(k.End, sp.End)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		out[sp.ID] = time.Duration(sp.End - sp.Start - covered)
	}
	return out
}

// byName returns the durations of the spans named name, in ms.
func (t *Tracer) byName(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, ms(sp.dur()))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *Tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// begin opens a span and returns its ID; end closes it.
func (t *Tracer) begin(name string, parent int64) int64 {
	return t.add(Span{Name: name, Parent: parent, Start: time.Now().UnixNano()})
}

func (t *Tracer) end(id int64) time.Duration {
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return sp.dur()
}

// timed runs fn as a span named name under parent, making the span
// the parent of whatever fn reports through cur, and returns its
// duration and the heap objects it allocated.
func (t *Tracer) timed(name string, parent int64, cur *atomic.Int64, fn func()) (time.Duration, uint64) {
	id := t.begin(name, parent)
	prev := cur.Swap(id)
	a0 := allocObjects()
	fn()
	allocs := allocObjects() - a0
	d := t.end(id)
	cur.Store(prev)
	return d, allocs
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func allocObjects() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// phaseSpans adapts core.PhaseObserver to spans: a phase reported with
// its duration becomes a span ending now, under the current parent.
type phaseSpans struct {
	t      *Tracer
	parent *atomic.Int64
}

func (p phaseSpans) ObservePhase(phase string, d time.Duration) {
	end := time.Now()
	p.t.add(Span{Name: phaseSpanName[phase], Parent: p.parent.Load(), Start: end.Add(-d).UnixNano(), End: end.UnixNano()})
}

// phaseSpanName maps core's analysis phases to the module that does
// the work.
var phaseSpanName = map[string]string{
	"parse":      "fortran.Parse",
	"interproc":  "interproc.AnalyzeProgram",
	"dataflow":   "dataflow.Analyze",
	"dependence": "dep.Analyze",
	"perf":       "perf.EstimateUnit",
	"patch":      "core.patch",
}
