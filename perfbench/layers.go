package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"parascope/internal/codegen"
	"parascope/internal/core"
	"parascope/internal/execguard"
	"parascope/internal/fortran"
	"parascope/internal/interp"
	"parascope/internal/planner"
)

// serverVerbs are the pedd request verbs with a per-verb handler and
// self time.
var serverVerbs = []string{"open", "select", "deps", "cmd", "classify", "edit", "transform",
	"undo", "close", "plan", "apply-plan", "run"}

// latencyClasses are the classes with traced p50/p90/p99.
var latencyClasses = []string{classOpen, classRead, classMark, classEdit, classXform,
	classPlan, classRunInterp, classRunCompile}

// perLayerNames lists every metric a traced run prints, with its unit,
// in BENCHMARK.json order.
func perLayerNames() [][2]string {
	out := [][2]string{{"trace.overhead_ratio", "ratio"}, {"cluster.proxy_ms", "ms"}}
	for _, v := range serverVerbs {
		out = append(out, [2]string{"server.handler_ms." + v, "ms"})
	}
	for _, v := range serverVerbs {
		out = append(out, [2]string{"server.self_ms." + v, "ms"})
	}
	out = append(out,
		[2]string{"server.queue_wait_ms", "ms"}, [2]string{"server.cache_hit_ratio", "ratio"},
		[2]string{"server.materializations", "count"}, [2]string{"server.journal_append_ms", "ms"},
		[2]string{"server.journal_fsync_ms", "ms"}, [2]string{"server.journal_bytes_per_mutation", "B"},
		[2]string{"core.open_ms", "ms"}, [2]string{"core.open_allocs", "count"},
		[2]string{"core.deps_ms", "ms"}, [2]string{"core.undo_ms", "ms"})
	for _, r := range rungNames {
		out = append(out, [2]string{"core.edit_ms." + r, "ms"})
	}
	for _, r := range rungNames {
		out = append(out, [2]string{"core.edit_allocs." + r, "count"})
	}
	for _, r := range rungNames {
		out = append(out, [2]string{"core.rung_share." + r, "ratio"})
	}
	out = append(out,
		[2]string{"fortran.parse_ms", "ms"}, [2]string{"dataflow.analyze_ms", "ms"},
		[2]string{"dep.analyze_ms", "ms"}, [2]string{"interproc.analyze_ms", "ms"},
		[2]string{"perf.estimate_ms", "ms"}, [2]string{"core.patch_ms", "ms"},
		[2]string{"xform.check_ms", "ms"}, [2]string{"xform.apply_ms", "ms"},
		[2]string{"planner.search_ms", "ms"}, [2]string{"planner.search_allocs", "count"},
		[2]string{"planner.worlds_forked", "count"}, [2]string{"planner.worlds_scored", "count"},
		[2]string{"planner.worlds_discarded", "count"}, [2]string{"planner.scored_ratio", "ratio"},
		[2]string{"planner.worlds_per_s", "1/s"},
		[2]string{"interp.run_ms", "ms"}, [2]string{"interp.stmts_per_s", "1/s"},
		[2]string{"interp.allocs_per_stmt", "count"},
		[2]string{"codegen.generate_ms", "ms"}, [2]string{"codegen.build_ms", "ms"},
		[2]string{"codegen.run_ms", "ms"}, [2]string{"execguard.overhead_ms", "ms"},
		[2]string{"property.open_cache_hit_share", "ratio"}, [2]string{"property.plan_cache_hit_share", "ratio"},
		[2]string{"property.compile_decline_share", "ratio"}, [2]string{"property.program_lines_p50", "lines"},
		[2]string{"property.program_lines_max", "lines"})
	for _, c := range latencyClasses {
		for _, q := range []string{"p50", "p90", "p99"} {
			out = append(out, [2]string{"verb." + c + "." + q + "_ms", "ms"})
		}
	}
	return out
}

// replayed holds the in-process replay's observations, by span name.
type replayed struct {
	dur    map[string][]float64 // ms
	allocs map[string][]float64
	// Planner and interpreter counters.
	forked, scored, discarded atomic.Int64
	stmts                     float64
	overhead                  []float64 // governed minus ungoverned compiled run, ms
	// exec holds core.Exec durations (ms) by run request, keyed as
	// runKey keys them.
	exec map[string][]float64
}

// runKey names a run request by its program, latency class and DOALL
// width.
func runKey(prog, class string, workers int) string {
	return fmt.Sprintf("%s/%s/%d", prog, class, workers)
}

func (rp *replayed) note(name string, d time.Duration, allocs uint64) {
	rp.dur[name] = append(rp.dur[name], ms(d))
	rp.allocs[name] = append(rp.allocs[name], float64(allocs))
}

func (rp *replayed) WorldForked()    { rp.forked.Add(1) }
func (rp *replayed) WorldScored()    { rp.scored.Add(1) }
func (rp *replayed) WorldDiscarded() { rp.discarded.Add(1) }
func (rp *replayed) WorldsLive(int)  {}

// planReplays bounds the traced replay of the plan workload.
const planReplays = 24

// replay runs the workload's op stream in-process against core,
// xform, planner, interp, codegen and execguard, timing each call from
// the outside as a span.
func replay(wl *workload, scripts []*Script, t *Tracer, dir string) (*replayed, error) {
	rp := &replayed{dur: map[string][]float64{}, allocs: map[string][]float64{}, exec: map[string][]float64{}}
	var cur atomic.Int64
	obs := phaseSpans{t: t, parent: &cur}
	timed := func(name string, fn func()) (time.Duration, uint64) {
		d, a := t.timed(name, 0, &cur, fn)
		rp.note(name, d, a)
		return d, a
	}
	switch wl.name {
	case "edit-session":
		for _, sc := range scripts {
			if err := replayEdit(sc, obs, timed, rp); err != nil {
				return nil, err
			}
		}
	case "plan":
		for i, sc := range scripts {
			if i == planReplays {
				break
			}
			p := sc.Prog
			var s *core.Session
			var err error
			timed("core.Open", func() { s, err = core.OpenObserved(p.Path, p.Source, 0, obs) })
			if err != nil {
				return nil, err
			}
			src, unit := s.Save(), s.CurrentUnit().Name
			timed("planner.Search", func() { _, err = planner.Search(context.Background(), p.Path, src, unit, planOptions(), rp) })
			if err != nil {
				return nil, err
			}
			if err := replayInterp(p, timed, rp); err != nil {
				return nil, err
			}
		}
	case "run":
		for i, sc := range scripts {
			if err := replayRun(sc.Prog, filepath.Join(dir, fmt.Sprintf("cache%d", i)), timed, rp); err != nil {
				return nil, err
			}
		}
	}
	return rp, nil
}

func replayEdit(sc *Script, obs phaseSpans, timed func(string, func()) (time.Duration, uint64), rp *replayed) error {
	var cs *coreSession
	var err error
	for i := range sc.Ops {
		op := &sc.Ops[i]
		switch op.Verb {
		case "open":
			timed("core.Open", func() { cs, err = openCore(sc.Prog, obs) })
		case "close":
		case "deps":
			timed("core.SelectionDeps", func() { _ = filterDeps(depInfos(cs.s), *op.Deps) })
		case "transform":
			xf, perr := core.ParseTransformation(cs.s, append([]string{op.Transform.Name}, op.Transform.Args...))
			if perr != nil {
				return perr
			}
			if op.Transform.CheckOnly {
				timed("xform.Check", func() { _ = cs.s.Check(xf) })
			} else {
				d, allocs := timed("xform.Apply", func() { _, err = cs.s.Transform(xf) })
				rp.noteRung(cs.s, d, allocs)
			}
		default:
			name := map[string]string{"select": "core.SelectLoop", "cmd": "repl.Execute",
				"classify": "core.Classify", "edit": "core.EditStmt", "undo": "core.Undo"}[op.Verb]
			d, allocs := timed(name, func() { _, err = cs.apply(op) })
			if op.Verb == "edit" || op.Verb == "undo" {
				rp.noteRung(cs.s, d, allocs)
			}
		}
		if err != nil {
			return fmt.Errorf("%s %s: %v", sc.Name, op.Verb, err)
		}
	}
	return nil
}

// noteRung files the duration and allocations of a request that
// reanalyzed under the rung core took.
func (rp *replayed) noteRung(s *core.Session, d time.Duration, allocs uint64) {
	rp.note("core.reanalyze."+s.LastReanalysis.Mode, d, allocs)
}

// replayInterp runs the program once on the interpreter.
func replayInterp(p *Program, timed func(string, func()) (time.Duration, uint64), rp *replayed) error {
	f, err := fortran.Parse(p.Path, p.Source)
	if err != nil {
		return err
	}
	m := interp.New(f)
	m.Input = p.Input
	m.Workers = 1
	timed("interp.Run", func() { err = m.Run() })
	rp.stmts += float64(m.StmtsExecuted())
	return err
}

// runRepeats is how often the traced run times each execution.
const runRepeats = 2

func replayRun(p *Program, cache string, timed func(string, func()) (time.Duration, uint64), rp *replayed) error {
	for i := 0; i < runRepeats; i++ {
		if err := replayInterp(p, timed, rp); err != nil {
			return err
		}
	}
	f, err := fortran.Parse(p.Path, p.Source)
	if err != nil {
		return err
	}
	timed("codegen.Generate", func() { _, err = codegen.Generate(f) })
	declined := codegen.IsDeclined(err)
	if err != nil && !declined {
		return err
	}
	ctx := context.Background()
	var art *codegen.Artifact
	if !declined {
		timed("codegen.Build", func() { art, err = codegen.Build(ctx, f, cache, nil) })
		if err != nil {
			return err
		}
	}
	s, err := core.Open(p.Path, p.Source)
	if err != nil {
		return err
	}
	gov := execguard.New(execguard.Config{})
	// Each request the run handler serves, as core executes it: the
	// handler's self time is taken against these.
	for _, w := range runWorkers {
		for _, r := range []struct{ class, backend string }{
			{classRunInterp, core.BackendInterp}, {classRunCompile, core.BackendCompile},
		} {
			for i := 0; i < runRepeats; i++ {
				d, _ := timed("core.Exec", func() {
					_, err = s.Exec(ctx, core.ExecRequest{Backend: r.backend, Workers: w, Input: p.Input,
						CacheDir: cache, Fallback: true, Gov: gov})
				})
				if err != nil {
					return err
				}
				key := runKey(p.Name, r.class, w)
				rp.exec[key] = append(rp.exec[key], ms(d))
			}
		}
	}
	if declined {
		return nil
	}
	var bare, governed []float64
	for i := 0; i < runRepeats; i++ {
		start := time.Now()
		timed("codegen.Run", func() { _, err = codegen.Run(ctx, art, 1, p.Input, nil) })
		if err != nil {
			return err
		}
		bare = append(bare, ms(time.Since(start)))
		start = time.Now()
		timed("core.Exec", func() {
			_, err = s.Exec(ctx, core.ExecRequest{Backend: core.BackendCompile, Workers: 1, Input: p.Input, CacheDir: cache, Gov: gov})
		})
		if err != nil {
			return err
		}
		governed = append(governed, ms(time.Since(start)))
	}
	rp.overhead = append(rp.overhead, median(governed)-median(bare))
	return nil
}

// coreVerb maps a pedd verb to the replay spans of its core work. A
// run's core work depends on its backend and width; see runKey.
var coreVerb = map[string][]string{
	"open": {"core.Open"}, "select": {"core.SelectLoop"}, "deps": {"core.SelectionDeps"},
	"cmd": {"repl.Execute"}, "classify": {"core.Classify"}, "edit": {"core.EditStmt"},
	"transform": {"xform.Check", "xform.Apply"}, "undo": {"core.Undo"},
	"plan": {"planner.Search"},
}

func layerMetrics(wl *workload, scripts []*Script, samples []sample, block int, t *Tracer,
	before, after regSnapshot, p props, dir string) (map[string]metric, error) {
	rp, err := replay(wl, scripts, t, dir)
	if err != nil {
		return nil, err
	}
	units := map[string]string{}
	for _, nu := range perLayerNames() {
		units[nu[0]] = nu[1]
	}
	m := map[string]metric{}
	set := func(name string, v float64) {
		if _, ok := units[name]; !ok {
			panic("undeclared per-layer metric " + name)
		}
		m[name] = metric{v, units[name]}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Tracing overhead: traced over untraced blocks' request rates,
	// the warm-up block left out.
	byClass := map[string][]float64{}
	byReq := map[string]sample{}
	for _, s := range samples {
		if s.traced {
			byClass[s.class] = append(byClass[s.class], ms(s.dur))
			byReq[s.req] = s
		}
	}
	var tracedRates, plainRates []float64
	for i, b := range splitBlocks(samples, block) {
		switch {
		case i == 0:
		case b[0].traced:
			tracedRates = append(tracedRates, rate(b))
		default:
			plainRates = append(plainRates, rate(b))
		}
	}
	set("trace.overhead_ratio", ratio(median(tracedRates), median(plainRates)))
	for _, c := range latencyClasses {
		set("verb."+c+".p50_ms", quantile(byClass[c], 0.5))
		set("verb."+c+".p90_ms", quantile(byClass[c], 0.9))
		set("verb."+c+".p99_ms", quantile(byClass[c], 0.99))
	}

	// coreMs is the median in-process time of the core work a request
	// does. An open or plan served from a cache does none.
	coreMs := map[string]float64{}
	for verb, names := range coreVerb {
		var xs []float64
		for _, name := range names {
			xs = append(xs, rp.dur[name]...)
		}
		coreMs[verb] = median(xs)
	}
	coreOf := func(verb string, s sample) float64 {
		switch {
		case verb == "run":
			return median(rp.exec[runKey(scripts[s.script%len(scripts)].Name, s.class, s.workers)])
		case s.cached:
			return 0
		}
		return coreMs[verb]
	}

	// Spans: client RTT self time is what the gateway and the two
	// HTTP hops add around the pedd handler; a handler's self time is
	// what pedd adds around the core work of the same request. The
	// replay ran alone, so self times come from handler spans that
	// overlapped no other: a handler sharing the cores with another
	// request's work also waits for a core.
	self := t.selfTimes()
	handler := map[string][]float64{}
	serverSelf := map[string][]float64{}
	var proxy []float64
	t.mu.Lock()
	hasChild := map[int64]bool{}
	var handlers []Span
	for _, sp := range t.spans {
		if strings.HasPrefix(sp.Name, "server.") && sp.Parent != 0 {
			hasChild[sp.Parent] = true
			handlers = append(handlers, sp)
		}
	}
	sort.Slice(handlers, func(i, j int) bool { return handlers[i].Start < handlers[j].Start })
	var lastEnd int64
	for i, sp := range handlers {
		verb := strings.TrimPrefix(sp.Name, "server.")
		handler[verb] = append(handler[verb], ms(sp.dur()))
		solo := lastEnd <= sp.Start && (i+1 == len(handlers) || handlers[i+1].Start >= sp.End)
		if solo {
			serverSelf[verb] = append(serverSelf[verb], ms(sp.dur())-coreOf(verb, byReq[sp.Req]))
		}
		lastEnd = max(lastEnd, sp.End)
	}
	for _, sp := range t.spans {
		if strings.HasPrefix(sp.Name, "client.") && hasChild[sp.ID] {
			proxy = append(proxy, ms(self[sp.ID]))
		}
	}
	t.mu.Unlock()
	set("cluster.proxy_ms", median(proxy))
	for _, v := range serverVerbs {
		set("server.handler_ms."+v, median(handler[v]))
		set("server.self_ms."+v, median(serverSelf[v]))
	}

	d := regSnapshot{
		queueWaitSum: after.queueWaitSum - before.queueWaitSum, queueWaitN: after.queueWaitN - before.queueWaitN,
		cacheHits: after.cacheHits - before.cacheHits, cacheMisses: after.cacheMisses - before.cacheMisses,
		materializations: after.materializations - before.materializations,
		appendSum:        after.appendSum - before.appendSum, appendN: after.appendN - before.appendN,
		fsyncSum: after.fsyncSum - before.fsyncSum, fsyncN: after.fsyncN - before.fsyncN,
		journalBytes: after.journalBytes - before.journalBytes,
	}
	set("server.queue_wait_ms", 1000*ratio(d.queueWaitSum, d.queueWaitN))
	set("server.cache_hit_ratio", ratio(d.cacheHits, d.cacheHits+d.cacheMisses))
	set("server.materializations", d.materializations)
	set("server.journal_append_ms", 1000*ratio(d.appendSum, d.appendN))
	set("server.journal_fsync_ms", 1000*ratio(d.fsyncSum, d.fsyncN))
	set("server.journal_bytes_per_mutation", ratio(d.journalBytes, d.appendN))

	set("core.open_ms", median(rp.dur["core.Open"]))
	set("core.open_allocs", median(rp.allocs["core.Open"]))
	set("core.deps_ms", median(rp.dur["core.SelectionDeps"]))
	set("core.undo_ms", median(rp.dur["core.Undo"]))
	for _, r := range rungNames {
		set("core.edit_ms."+r, median(rp.dur["core.reanalyze."+r]))
		set("core.rung_share."+r, p.rungs[r])
	}
	for _, r := range rungNames {
		set("core.edit_allocs."+r, median(rp.allocs["core.reanalyze."+r]))
	}
	for phase, name := range phaseSpanName {
		metricName := map[string]string{"parse": "fortran.parse_ms", "interproc": "interproc.analyze_ms",
			"dataflow": "dataflow.analyze_ms", "dependence": "dep.analyze_ms", "perf": "perf.estimate_ms",
			"patch": "core.patch_ms"}[phase]
		set(metricName, median(t.byName(name)))
	}
	set("xform.check_ms", median(rp.dur["xform.Check"]))
	set("xform.apply_ms", median(rp.dur["xform.Apply"]))

	searches := float64(len(rp.dur["planner.Search"]))
	searchTime := 0.0
	for _, x := range rp.dur["planner.Search"] {
		searchTime += x / 1000
	}
	forked, scored := float64(rp.forked.Load()), float64(rp.scored.Load())
	set("planner.search_ms", median(rp.dur["planner.Search"]))
	set("planner.search_allocs", median(rp.allocs["planner.Search"]))
	set("planner.worlds_forked", ratio(forked, searches))
	set("planner.worlds_scored", ratio(scored, searches))
	set("planner.worlds_discarded", ratio(float64(rp.discarded.Load()), searches))
	set("planner.scored_ratio", ratio(scored, forked))
	set("planner.worlds_per_s", ratio(forked, searchTime))

	interpTime, interpAllocs := 0.0, 0.0
	for i, x := range rp.dur["interp.Run"] {
		interpTime += x / 1000
		interpAllocs += rp.allocs["interp.Run"][i]
	}
	set("interp.run_ms", median(rp.dur["interp.Run"]))
	set("interp.stmts_per_s", ratio(rp.stmts, interpTime))
	set("interp.allocs_per_stmt", ratio(interpAllocs, rp.stmts))
	set("codegen.generate_ms", median(rp.dur["codegen.Generate"]))
	set("codegen.build_ms", median(rp.dur["codegen.Build"]))
	set("codegen.run_ms", median(rp.dur["codegen.Run"]))
	set("execguard.overhead_ms", mean(rp.overhead))

	set("property.open_cache_hit_share", p.openCacheHit)
	set("property.plan_cache_hit_share", p.planCacheHit)
	set("property.compile_decline_share", p.compileDecline)
	set("property.program_lines_p50", p.linesP50)
	set("property.program_lines_max", p.linesMax)
	return m, nil
}
