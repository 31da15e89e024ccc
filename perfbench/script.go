package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"parascope/internal/codegen"
	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/interp"
	"parascope/internal/planner"
	"parascope/internal/server"
	"parascope/internal/workloads"
)

// scriptWriter appends ops to a script while driving the in-process
// replay, so every expected answer is what core gives for exactly the
// state the daemon's session will be in.
type scriptWriter struct {
	r  *rand.Rand
	p  *Program
	cs *coreSession
	sc *Script
}

func (b *scriptWriter) add(op Op) error {
	out, err := b.cs.apply(&op)
	if err != nil {
		return fmt.Errorf("%s %s: %v", b.p.Name, op.Verb, err)
	}
	switch op.Verb {
	case "select":
		op.Want.Select = b.cs.selectResponse()
	case "deps":
		op.Want.Deps = depSigs(filterDeps(depInfos(b.cs.s), *op.Deps), true)
	case "cmd", "transform":
		op.Want.Output = out
	case "edit", "undo":
		op.Want.Rung = b.cs.s.LastReanalysis.Mode
	}
	if op.Verb == "transform" && !op.Transform.CheckOnly {
		op.Want.Rung = b.cs.s.LastReanalysis.Mode
	}
	b.sc.Ops = append(b.sc.Ops, op)
	return nil
}

// checkScratch re-selects a loop of the current unit and lists its
// dependences against a from-scratch analysis of the current source:
// the incremental ≡ scratch promise, checked after every mutation.
func (b *scriptWriter) checkScratch() error {
	s := b.cs.s
	loop := 0
	if n := len(s.Loops()); n > 0 {
		loop = 1 + b.r.Intn(n)
	}
	if err := b.add(Op{Verb: "select", Class: classRead,
		Select: &server.SelectRequest{Unit: s.CurrentUnit().Name, Loop: loop}}); err != nil {
		return err
	}
	want, err := b.cs.scratchDeps(b.p.Path)
	if err != nil {
		return err
	}
	b.sc.Ops = append(b.sc.Ops, Op{Verb: "deps", Class: classRead, Deps: &server.DepQuery{},
		Want: Want{Deps: want, Scratch: true}})
	return nil
}

// depQueries are the dependence-pane filters a session reads with.
func (b *scriptWriter) depQuery() *server.DepQuery {
	q := &server.DepQuery{}
	switch b.r.Intn(5) {
	case 0:
		q.Carried = true
	case 1:
		q.HidePrivate = true
	case 2:
		q.HideRejected = true
		q.Carried = true
	case 3:
		q.Classes = []string{"true", "anti"}
	default:
		deps := depInfos(b.cs.s)
		if len(deps) > 0 {
			q.Sym = deps[b.r.Intn(len(deps))].Sym
		}
	}
	return q
}

// genEditScript plays one seeded user session over p: open, select a
// unit and loop, read deps (filtered) and vars, mark or classify,
// edit so that each reanalysis rung is reached (patch: 1:1 simple
// statement; unit: statement deleted; program: call deleted), check
// then apply a transformation, undo, close.
func genEditScript(r *rand.Rand, p *Program) (*Script, error) {
	cs, err := openCore(p, nil)
	if err != nil {
		return nil, err
	}
	b := &scriptWriter{r: r, p: p, cs: cs, sc: &Script{Prog: p, Name: p.Name}}
	s := cs.s
	b.sc.Ops = append(b.sc.Ops, Op{Verb: "open", Class: classOpen,
		Open: &server.OpenRequest{Path: p.Path, Source: p.Source}, Want: Want{Units: unitNames(s)}})

	var withLoops []string
	for _, u := range s.File.Units {
		if hasLoop(u) {
			withLoops = append(withLoops, u.Name)
		}
	}
	if len(withLoops) == 0 {
		return nil, fmt.Errorf("%s has no loops", p.Name)
	}
	unit := withLoops[r.Intn(len(withLoops))]
	if err := s.SelectUnit(unit); err != nil {
		return nil, err
	}
	nloops := len(s.Loops())
	if err := b.add(Op{Verb: "select", Class: classRead,
		Select: &server.SelectRequest{Unit: unit, Loop: 1 + r.Intn(nloops)}}); err != nil {
		return nil, err
	}
	if err := b.add(Op{Verb: "deps", Class: classRead, Deps: b.depQuery()}); err != nil {
		return nil, err
	}
	if err := b.add(Op{Verb: "cmd", Class: classRead, Line: "vars"}); err != nil {
		return nil, err
	}
	if err := b.markOrClassify(); err != nil {
		return nil, err
	}
	if err := b.add(Op{Verb: "deps", Class: classRead, Deps: b.depQuery()}); err != nil {
		return nil, err
	}
	if err := b.checkScratch(); err != nil {
		return nil, err
	}

	rungs := []string{"patch", "unit", "program"}
	r.Shuffle(len(rungs), func(i, j int) { rungs[i], rungs[j] = rungs[j], rungs[i] })
	for _, rung := range rungs {
		ok, err := b.edit(rung)
		if err != nil {
			return nil, err
		}
		if ok {
			if err := b.checkScratch(); err != nil {
				return nil, err
			}
		}
	}
	applied, err := b.transform()
	if err != nil {
		return nil, err
	}
	if applied {
		if err := b.checkScratch(); err != nil {
			return nil, err
		}
	}
	if len(s.UndoStack()) > 0 {
		if err := b.add(Op{Verb: "undo", Class: classXform}); err != nil {
			return nil, err
		}
		if err := b.checkScratch(); err != nil {
			return nil, err
		}
	}
	b.sc.Ops = append(b.sc.Ops, Op{Verb: "close", Class: classClose})
	return b.sc, nil
}

func (b *scriptWriter) markOrClassify() error {
	s := b.cs.s
	if b.r.Intn(2) == 0 {
		deps := s.SelectionDeps(core.DepFilter{})
		b.r.Shuffle(len(deps), func(i, j int) { deps[i], deps[j] = deps[j], deps[i] })
		for _, d := range deps {
			for _, m := range []string{"reject", "accept"} {
				line := fmt.Sprintf("mark %d %s", d.ID, m)
				if _, err := b.cs.exec(line); err == nil {
					// The probe applied the mark; the op replays it
					// idempotently so the expected output is recorded.
					return b.add(Op{Verb: "cmd", Class: classMark, Line: line})
				}
			}
		}
	}
	rows := s.VariablePane()
	b.r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for _, row := range rows {
		if _, ok := varClasses[row.Class.String()]; ok {
			return b.add(Op{Verb: "classify", Class: classMark,
				Classify: &server.ClassifyRequest{Var: row.Sym.Name, Class: row.Class.String()}})
		}
	}
	return nil
}

// edit applies one edit aimed at the given rung: a 1:1 rewrite of a
// simple assignment (patch), the deletion of a call-free assignment
// (unit), or the deletion of a call (program). The replay records the
// rung core actually took. It reports false when the unit offers no
// candidate statement.
func (b *scriptWriter) edit(rung string) (bool, error) {
	s := b.cs.s
	if rung == "program" && !hasCall(s.CurrentUnit()) {
		for _, u := range s.File.Units {
			if hasCall(u) {
				if err := b.add(Op{Verb: "select", Class: classRead,
					Select: &server.SelectRequest{Unit: u.Name}}); err != nil {
					return false, err
				}
				break
			}
		}
	}
	var cands []fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		switch st.(type) {
		case *fortran.AssignStmt:
			if rung != "program" && !callsFunction(st) {
				cands = append(cands, st)
			}
		case *fortran.CallStmt:
			if rung == "program" {
				cands = append(cands, st)
			}
		}
		return true
	})
	if len(cands) == 0 {
		return false, nil
	}
	st := cands[b.r.Intn(len(cands))]
	req := &server.EditRequest{Stmt: st.ID()}
	if rung == "patch" {
		text := fortran.StmtText(st)
		i := strings.Index(text, " = ")
		if i < 0 {
			return false, nil
		}
		lhs, rhs := text[:i], text[i+3:]
		if len(text) < 50 && b.r.Intn(2) == 0 {
			text = lhs + " = " + rhs + " + " + lhs
		}
		req.Text = "      " + text
	} else {
		req.Delete = true
	}
	return true, b.add(Op{Verb: "edit", Class: classEdit, Edit: req})
}

func hasCall(u *fortran.Unit) bool { return hasStmt[*fortran.CallStmt](u) }

func hasLoop(u *fortran.Unit) bool { return hasStmt[*fortran.DoStmt](u) }

// hasStmt reports whether u contains a statement of type T.
func hasStmt[T fortran.Stmt](u *fortran.Unit) bool {
	found := false
	fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
		if _, ok := st.(T); ok {
			found = true
		}
		return !found
	})
	return found
}

func callsFunction(st fortran.Stmt) bool {
	found := false
	fortran.WalkExprs(st, func(e fortran.Expr) {
		if _, ok := e.(*fortran.FuncCall); ok {
			found = true
		}
	})
	return found
}

// transformCandidates are the power-steering requests a session tries
// on its selected loop, in seeded order.
var transformCandidates = [][]string{
	{"parallelize"}, {"reverse"}, {"distribute"}, {"unroll", "2"},
	{"stripmine", "4"}, {"peel"}, {"interchange"},
}

// transform checks a transformation on a loop of the current unit
// and, when core says it is applicable and safe, applies it.
func (b *scriptWriter) transform() (bool, error) {
	s := b.cs.s
	loops := len(s.Loops())
	if loops == 0 {
		return false, nil
	}
	loop := strconv.Itoa(1 + b.r.Intn(loops))
	order := b.r.Perm(len(transformCandidates))
	var first *server.TransformRequest
	for _, i := range order {
		c := transformCandidates[i]
		args := append([]string{loop}, c[1:]...)
		t, err := core.ParseTransformation(s, append([]string{c[0]}, args...))
		if err != nil {
			continue
		}
		req := &server.TransformRequest{Name: c[0], Args: args}
		if first == nil {
			first = req
		}
		if !s.Check(t).OK() {
			continue
		}
		check := *req
		check.CheckOnly = true
		if err := b.add(Op{Verb: "transform", Class: classXform, Transform: &check}); err != nil {
			return false, err
		}
		return true, b.add(Op{Verb: "transform", Class: classXform, Transform: req})
	}
	if first != nil {
		check := *first
		check.CheckOnly = true
		return false, b.add(Op{Verb: "transform", Class: classXform, Transform: &check})
	}
	return false, nil
}

// planOptions are the daemon's defaults for a synchronous plan
// request with an empty body.
func planOptions() planner.Options { return planner.Options{Interp: true} }

// planSigs renders ranked plans for comparison.
func planSigs(plans []planner.Plan) []string {
	out := make([]string, 0, len(plans))
	for _, p := range plans {
		var steps []string
		for _, st := range p.Steps {
			steps = append(steps, st.Line+"@"+st.Hash)
		}
		out = append(out, fmt.Sprintf("%d %s est=%v sim=%v score=%v par=%d [%s]",
			p.Rank, p.ID, p.EstSpeedup, p.SimSpeedup, p.Score, p.Parallelized, strings.Join(steps, "; ")))
	}
	return out
}

// genPlanScript opens p, searches with daemon defaults, applies the
// top plan and closes. The expected plans are those of an in-process
// search of the same source, which the daemon's plan cache assumes is
// deterministic.
func genPlanScript(p *Program) (*Script, error) {
	s, err := core.Open(p.Path, p.Source)
	if err != nil {
		return nil, err
	}
	res, err := planner.Search(context.Background(), p.Path, s.Save(), s.CurrentUnit().Name, planOptions(), nil)
	if err != nil {
		return nil, err
	}
	sc := &Script{Prog: p, Name: p.Name}
	sc.Ops = append(sc.Ops,
		Op{Verb: "open", Class: classOpen, Open: &server.OpenRequest{Path: p.Path, Source: p.Source},
			Want: Want{Units: unitNames(s)}},
		Op{Verb: "plan", Class: classPlan, Want: Want{Plans: planSigs(res.Plans)}})
	if len(res.Plans) > 0 {
		top := res.Plans[0]
		hash := res.BaseHash
		if n := len(top.Steps); n > 0 {
			hash = top.Steps[n-1].Hash
		}
		sc.Ops = append(sc.Ops, Op{Verb: "apply-plan", Class: classXform,
			Want: Want{Hash: hash, Applied: len(top.Steps)}})
	}
	sc.Ops = append(sc.Ops, Op{Verb: "close", Class: classClose})
	return sc, nil
}

// runWorkers are the DOALL widths each program runs at.
var runWorkers = []int{1, 2}

// genRunScript opens p and runs it on the interpreter and the compile
// backend at each worker count. The expected output of every run is
// the in-process interpreter's at that width; compile requests allow
// fallback, and a program codegen declines is expected back from the
// interpreter.
func genRunScript(p *Program) (*Script, error) {
	f, err := fortran.Parse(p.Path, p.Source)
	if err != nil {
		return nil, err
	}
	compiled := "compile"
	if _, err := codegen.Generate(f); err != nil {
		if !codegen.IsDeclined(err) {
			return nil, err
		}
		compiled = "interp"
	}
	s, err := core.Open(p.Path, p.Source)
	if err != nil {
		return nil, err
	}
	sc := &Script{Prog: p, Name: p.Name}
	sc.Ops = append(sc.Ops, Op{Verb: "open", Class: classOpen,
		Open: &server.OpenRequest{Path: p.Path, Source: p.Source}, Want: Want{Units: unitNames(s)}})
	for _, w := range runWorkers {
		out, _, err := interp.RunCaptureSim(f, w, p.Input)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %v", p.Name, err)
		}
		sc.Ops = append(sc.Ops,
			Op{Verb: "run", Class: classRunInterp, Run: &server.RunRequest{Backend: "interp", Workers: w},
				Want: Want{Output: out, Backend: "interp"}},
			Op{Verb: "run", Class: classRunCompile, Run: &server.RunRequest{Backend: "compile", Workers: w, Fallback: true},
				Want: Want{Output: out, Backend: compiled}})
	}
	sc.Ops = append(sc.Ops, Op{Verb: "close", Class: classClose})
	return sc, nil
}

// runPool is the run workload's programs: each suite program after
// its documented parallelizing session, as a seeded variant, plus a
// seeded program of about 120k interpreted statements.
func runPool(seed int64) ([]*Program, error) {
	r := rand.New(rand.NewSource(seed))
	var out []*Program
	for _, w := range workloads.All() {
		v := suiteVariant(w, r)
		s, err := core.Open(v.Path, v.Source)
		if err != nil {
			return nil, fmt.Errorf("%s variant: %v", w.Name, err)
		}
		if _, err := w.Script(s); err != nil {
			return nil, fmt.Errorf("%s variant script: %v", w.Name, err)
		}
		out = append(out, newProgram(w.Name, v.Path, s.Save(), w.Input))
	}
	out = append(out, newProgram("runbig", "runbig.f", runBigSource(r), nil))
	return out, nil
}
