// Command perfbench is the repository's end-to-end benchmark: it
// starts an in-process fleet (one cluster.Gateway in front of two
// server.Managers on loopback listeners, journaling on), drives seeded
// Ped user sessions through it closed-loop, checks every answer, and
// prints the end-to-end metrics — or, with -trace 1, the per-layer
// breakdown — as one JSON object on the last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload edit-session --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and how to
// compare two commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parascope/internal/codegen"
	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/server"
)

// endToEnd lists the metrics an untraced run prints, with their
// units, in BENCHMARK.json order.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"work_p50_ms", "ms"},
	{"retained_heap_mb", "MB"},
}

// setupRepeats is how many times a run sets the fleet up; setup_s is
// the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: edit-session, plan or run")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	writeGolden := flag.String("write-golden", "", "write the run workload's reference outputs for -seed to this file and exit")
	flag.Parse()
	// The daemons' own log lines (recovery summaries) are not results.
	log.SetOutput(io.Discard)

	if *writeGolden != "" {
		scripts, err := runReference(*seed)
		if err == nil {
			var data []byte
			data, err = json.MarshalIndent(goldenFrom(scripts), "", "  ")
			if err == nil {
				err = os.WriteFile(*writeGolden, append(data, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl := workloadByName(*name)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload edit-session|plan|run, --seconds >= 1, --trace 0|1")
		return 2
	}
	if wl.held != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not a benchmark workload: %s\n", wl.name, wl.held)
	}
	res, err := bench(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// buildRoot holds everything a run writes; it is relative to the
// working directory, the checkout root.
const buildRoot = ".bench_build"

func bench(wl *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	h := host()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%t %s\n", wl.name, seed, window.Seconds(), traced, h)
	work, err := filepath.Abs(filepath.Join(buildRoot, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Reference answers are computed first and are not set-up time.
	t0 := time.Now()
	scripts, err := wl.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	ops := 0
	for _, sc := range scripts {
		ops += len(sc.Ops)
	}
	fmt.Printf("reference: %d sessions, %d requests, computed in %.2fs\n", len(scripts), ops, time.Since(t0).Seconds())

	// One throwaway build, so set-up does not depend on whether the
	// Go build cache was warm.
	if err := throwawayBuild(filepath.Join(work, "throwaway")); err != nil {
		return nil, fmt.Errorf("throwaway build: %w", err)
	}

	var rec *handlerRecorder
	var wrap func(http.Handler) http.Handler
	if traced {
		rec = &handlerRecorder{}
		wrap = rec.wrap
	}
	heapBefore := liveHeap()
	var fleet *Fleet
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if fleet != nil {
			fleet.Stop()
		}
		start := time.Now()
		fleet, err = setup(wl, scripts, filepath.Join(work, fmt.Sprintf("fleet%d", i)), wrap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer fleet.Stop()
	fmt.Printf("set-up: %v s (median of %d)\n", fmtFloats(setups), setupRepeats)
	if wl.fill != nil {
		fill, err := wl.fill(seed, scripts)
		if err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
		if err := prime(fleet, fill); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
	}

	tracer := &Tracer{}
	before := fleet.snapshot()
	start := time.Now()
	deadline := start.Add(window)
	block := wl.roundsPerBlock * wl.round(scripts)
	var tracedAt func(int) bool
	if traced {
		// Blocks alternate untraced and traced after the first, so
		// the tracing overhead compares like mixes of the same run.
		tracedAt = func(n int) bool { return (n/block)%2 == 1 }
	}
	clients := drive(fleet.URL, scripts, wl.clients, deadline, tracer, tracedAt)
	after := fleet.snapshot()

	var samples []sample
	failed := 0
	for _, c := range clients {
		samples = append(samples, c.samples...)
		for _, m := range c.mismatches {
			fmt.Println("MISMATCH", m)
		}
	}
	for _, s := range samples {
		if !s.ok {
			failed++
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	measured := completeRounds(clients, wl.round(scripts))
	fmt.Printf("measured: %d of %d requests, in whole rounds of the session stream\n", len(measured), len(samples))
	res := &result{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: map[string]metric{}}
	report(measured)
	props := properties(measured)
	printProperties(props)

	if !traced {
		blocks := splitBlocks(measured, block)
		if len(blocks) >= 3 {
			// The first block runs while the collector paces itself
			// to the fleet's heap; it is warm-up.
			blocks = blocks[1:]
		}
		fmt.Printf("blocks: %d (metrics are medians over blocks of %d whole rounds, first block dropped)\n", len(blocks), wl.roundsPerBlock)
		var rates []float64
		for _, b := range blocks {
			rates = append(rates, rate(b))
		}
		// Block rates show a host that drifts within a run.
		fmt.Printf("block rates: %s 1/s\n", fmtFloats(rates))
		values := map[string]float64{
			"setup_s":     median(setups),
			"ops_per_s":   median(rates),
			"op_p50_ms":   overBlocks(blocks, latency(nil, 0.5)),
			"work_p50_ms": overBlocks(blocks, latency(wl.work, 0.5)),
		}
		// The clients' samples are dead from here on, so the live heap
		// is the fleet's, with the scripts it was measured against.
		clients, samples, measured, blocks = nil, nil, nil, nil
		values["retained_heap_mb"] = (liveHeap() - heapBefore) / (1 << 20)
		for _, m := range endToEnd {
			res.Metrics[m[0]] = metric{values[m[0]], m[1]}
		}
		return res, nil
	}

	fleet.Stop()
	tracer.link(rec.spans)
	layers, err := layerMetrics(wl, scripts, measured, block, tracer, before, after, props, filepath.Join(work, "replay"))
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	res.Metrics = layers
	path := filepath.Join(buildRoot, "trace", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
	if err := tracer.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tracer.spans), path)
	return res, nil
}

// setup starts a fleet and, for the run workload, runs every program
// once on the compile backend against a fresh build cache.
func setup(wl *workload, scripts []*Script, dir string, wrap func(http.Handler) http.Handler) (*Fleet, error) {
	fleet, err := startFleet(dir, filepath.Join(dir, "buildcache"), wrap)
	if err != nil {
		return nil, err
	}
	if !wl.warmBuilds {
		return fleet, nil
	}
	var warm []*Script
	for _, sc := range scripts {
		w := &Script{Prog: sc.Prog, Name: sc.Name}
		for _, op := range sc.Ops {
			if op.Verb == "open" || op.Verb == "close" ||
				(op.Verb == "run" && op.Run.Backend == "compile" && op.Run.Workers == 1) {
				w.Ops = append(w.Ops, op)
			}
		}
		warm = append(warm, w)
	}
	// Two clients: a build occupies one core.
	playOnce(fleet.URL, warm, 2)
	return fleet, nil
}

// prime opens and closes every program once on every manager
// directly, filling each manager's analysis cache before timing.
func prime(fleet *Fleet, progs []*Program) error {
	var opens []*Script
	for _, p := range progs {
		s, err := core.Open(p.Path, p.Source)
		if err != nil {
			return err
		}
		opens = append(opens, &Script{Prog: p, Name: p.Name, Ops: []Op{
			{Verb: "open", Class: classOpen, Open: &server.OpenRequest{Path: p.Path, Source: p.Source},
				Want: Want{Units: unitNames(s)}},
			{Verb: "close", Class: classClose}}})
	}
	for _, base := range fleet.Backends {
		playOnce(base, opens, 2)
	}
	return nil
}

// playOnce plays each script once with the given number of clients.
// It reports the incorrect answers but does not fail on them: the
// measured window that follows counts them as failed requests.
func playOnce(base string, scripts []*Script, clients int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var problems []string
	for i := 0; i < clients; i++ {
		c := &client{id: 100 + i, base: base, http: newHTTPClient(clients), tracer: &Tracer{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.http.CloseIdleConnections()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(scripts) {
					break
				}
				c.runScript(scripts[n], n, func() bool { return false })
			}
			mu.Lock()
			problems = append(problems, c.mismatches...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, p := range problems {
		fmt.Println("MISMATCH (before timing)", p)
	}
}

// throwawayBuild compiles a trivial program through the compile
// backend into a scratch cache.
func throwawayBuild(dir string) error {
	f, err := fortran.Parse("warm.f", "      program warm\n      real x\n      x = 1.0\n      print *, x\n      end\n")
	if err != nil {
		return err
	}
	_, err = codegen.Build(context.Background(), f, dir, nil)
	return err
}

// splitBlocks cuts the measured samples into blocks of size whole
// sessions of the stream.
func splitBlocks(samples []sample, size int) [][]sample {
	if size < 1 {
		size = 1
	}
	byBlock := map[int][]sample{}
	last := 0
	for _, s := range samples {
		b := s.script / size
		byBlock[b] = append(byBlock[b], s)
		last = max(last, b)
	}
	var out [][]sample
	for b := 0; b <= last; b++ {
		if len(byBlock[b]) > 0 {
			out = append(out, byBlock[b])
		}
	}
	return out
}

// overBlocks is the median over blocks of a per-block statistic: a
// burst of load from outside the benchmark moves a block or two, not
// the median.
func overBlocks(blocks [][]sample, stat func([]sample) float64) float64 {
	var xs []float64
	for _, b := range blocks {
		xs = append(xs, stat(b))
	}
	return median(xs)
}

// rate is a block's requests per second, from its first request's
// start to its last answer.
func rate(b []sample) float64 {
	first, end := b[0].start, b[0].start
	for _, s := range b {
		if s.start.Before(first) {
			first = s.start
		}
		if e := s.start.Add(s.dur); e.After(end) {
			end = e
		}
	}
	return float64(len(b)) / end.Sub(first).Seconds()
}

// latency returns the q-quantile latency in ms of a block's requests
// in classes (all requests when classes is nil).
func latency(classes map[string]bool, q float64) func([]sample) float64 {
	return func(b []sample) float64 {
		var xs []float64
		for _, s := range b {
			if classes == nil || classes[s.class] {
				xs = append(xs, ms(s.dur))
			}
		}
		return quantile(xs, q)
	}
}

// liveHeap returns the live heap after forced collections; the second
// collects what the first only made unreachable (finalizers, pools).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// report prints the per-class latency table.
func report(samples []sample) {
	byClass := map[string][]float64{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], ms(s.dur))
	}
	fmt.Printf("%-12s %7s %9s %9s %9s\n", "class", "n", "p50_ms", "p90_ms", "p99_ms")
	for _, c := range allClasses {
		xs := byClass[c]
		if len(xs) == 0 {
			continue
		}
		fmt.Printf("%-12s %7d %9.3f %9.3f %9.3f\n", c, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99))
	}
}

// props are the measured workload properties an optimisation might
// key on.
type props struct {
	openCacheHit, planCacheHit, compileDecline float64
	rungs                                      map[string]float64
	linesMin, linesP50, linesMax               float64
}

func properties(samples []sample) props {
	var opens, openHits, plans, planHits, compiles, declines, rungTotal float64
	rungs := map[string]float64{}
	var lines []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		switch {
		case s.class == classOpen:
			opens++
			lines = append(lines, float64(s.lines))
			if s.cached {
				openHits++
			}
		case s.class == classPlan:
			plans++
			if s.cached {
				planHits++
			}
		case s.class == classRunCompile:
			compiles++
			if s.declined {
				declines++
			}
		}
		if s.rung != "" {
			rungs[s.rung]++
			rungTotal++
		}
	}
	share := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p := props{openCacheHit: share(openHits, opens), planCacheHit: share(planHits, plans),
		compileDecline: share(declines, compiles), rungs: map[string]float64{}}
	for _, r := range rungNames {
		p.rungs[r] = share(rungs[r], rungTotal)
	}
	sort.Float64s(lines)
	if len(lines) > 0 {
		p.linesMin, p.linesP50, p.linesMax = lines[0], quantile(lines, 0.5), lines[len(lines)-1]
	}
	return p
}

var rungNames = []string{"patch", "unit", "program", "full"}

func printProperties(p props) {
	fmt.Printf("property: open analysis-cache hit share %.3f\n", p.openCacheHit)
	fmt.Printf("property: plan-cache hit share %.3f\n", p.planCacheHit)
	fmt.Printf("property: compile-decline share %.3f\n", p.compileDecline)
	var parts []string
	for _, r := range rungNames {
		parts = append(parts, fmt.Sprintf("%s %.3f", r, p.rungs[r]))
	}
	fmt.Printf("property: reanalysis rung shares %s\n", strings.Join(parts, ", "))
	fmt.Printf("property: program lines min %.0f, p50 %.0f, max %.0f\n", p.linesMin, p.linesP50, p.linesMax)
}

func fmtFloats(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf("%.3f", x))
	}
	return "[" + strings.Join(parts, " ") + "]"
}
