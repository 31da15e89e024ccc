package dep

import (
	"sync"

	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// Options selects which analysis capabilities are enabled; the
// ablation experiment (Table 3) toggles them individually.
type Options struct {
	// UseConstants substitutes propagated integer constants into
	// subscript expressions before testing.
	UseConstants bool
	// UseRanges enables the range-based (Banerjee) tests using loop
	// bounds; with it off only exact divisibility tests run.
	UseRanges bool
	// UseSections tests call-statement array accesses against
	// interprocedural regular-section summaries instead of assuming
	// they touch whole arrays.
	UseSections bool
	// InputDeps also records read-read dependences for display.
	InputDeps bool
}

// DefaultOptions enables every analysis.
func DefaultOptions() Options {
	return Options{UseConstants: true, UseRanges: true, UseSections: true}
}

// SectionDim bounds one dimension of an array section in symbols of
// the calling procedure.
type SectionDim struct {
	Lo, Hi expr.Linear
	Known  bool
}

// SectionAccess describes one array side effect of a call as a
// bounded regular section.
type SectionAccess struct {
	Sym   *fortran.Symbol
	Write bool
	Dims  []SectionDim
}

// Summaries provides interprocedural side-effect detail for calls.
type Summaries interface {
	// CallSections returns the array sections statement s (a CALL or
	// a statement containing a user function call) may access, with
	// ok=false when the callee is unknown.
	CallSections(s fortran.Stmt) ([]SectionAccess, bool)
}

// ref is one reference participating in dependence testing.
type ref struct {
	stmt    fortran.Stmt
	acc     dataflow.Access
	nest    []*cfg.Loop // enclosing loops, outermost first
	isCall  bool
	section *SectionAccess // bounds when from a summarized call
}

// Analyzer runs dependence analysis over one unit.
type Analyzer struct {
	DF         *dataflow.Analysis
	Assertions *expr.Env // user assertions; may be nil
	Summ       Summaries // may be nil
	Opts       Options
}

// Analyze computes the dependence graph of df's unit.
func Analyze(df *dataflow.Analysis, assertions *expr.Env, summ Summaries, opts Options) *Graph {
	return AnalyzeN(df, assertions, summ, opts, 1)
}

// AnalyzeN is Analyze with subscript testing sharded by symbol across
// up to workers goroutines. The result is identical to the serial run:
// each symbol's reference pairs test into a private shard graph (the
// analyzer itself is only read — environments are built fresh per
// pair) and shards merge back in first-appearance symbol order before
// IDs are assigned. Worthwhile only when the caller is not already
// running units in parallel.
func AnalyzeN(df *dataflow.Analysis, assertions *expr.Env, summ Summaries, opts Options, workers int) *Graph {
	a := &Analyzer{DF: df, Assertions: assertions, Summ: summ, Opts: opts}
	return a.run(workers)
}

func (a *Analyzer) run(workers int) *Graph {
	g := &Graph{Unit: a.DF.Unit, Stats: newStats(), byLoop: map[*cfg.Loop][]*Dependence{}}
	refs := a.collectRefs()
	bySym := map[*fortran.Symbol][]*ref{}
	var symOrder []*fortran.Symbol
	for _, r := range refs {
		if _, ok := bySym[r.acc.Sym]; !ok {
			symOrder = append(symOrder, r.acc.Sym)
		}
		bySym[r.acc.Sym] = append(bySym[r.acc.Sym], r)
	}
	if workers > len(symOrder) {
		workers = len(symOrder)
	}
	if workers > 1 {
		a.runSharded(g, symOrder, bySym, workers)
	} else {
		for _, sym := range symOrder {
			a.testSym(g, sym, bySym[sym])
		}
	}
	a.addControlDeps(g)
	a.finalize(g)
	return g
}

// runSharded fans symbols out over workers goroutines, one shard graph
// per symbol, and merges deterministically.
func (a *Analyzer) runSharded(g *Graph, symOrder []*fortran.Symbol, bySym map[*fortran.Symbol][]*ref, workers int) {
	shards := make([]*Graph, len(symOrder))
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			for si := w; si < len(symOrder); si += workers {
				sg := &Graph{Unit: a.DF.Unit, Stats: newStats()}
				a.testSym(sg, symOrder[si], bySym[symOrder[si]])
				shards[si] = sg
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			// Re-raise on the caller's goroutine so the session's
			// usual panic isolation applies.
			panic(p)
		}
	}
	for _, sg := range shards {
		if sg == nil {
			continue
		}
		g.Deps = append(g.Deps, sg.Deps...)
		g.Stats.mergeFrom(&sg.Stats)
	}
}

// testSym tests every reference pair of one symbol, in collection
// order, applying the standard skip rules.
func (a *Analyzer) testSym(g *Graph, sym *fortran.Symbol, list []*ref) {
	for i := 0; i < len(list); i++ {
		for j := i; j < len(list); j++ {
			r1, r2 := list[i], list[j]
			if !r1.acc.Write && !r2.acc.Write && !a.Opts.InputDeps {
				continue
			}
			if i == j && !r1.acc.Write {
				continue
			}
			a.testRefPair(g, sym, r1, r2)
		}
	}
}

// finalize assigns dependence IDs and builds the per-loop index.
func (a *Analyzer) finalize(g *Graph) {
	for i, d := range g.Deps {
		d.ID = i + 1
		for _, l := range commonNest(a.DF.Tree, d.Src, d.Dst) {
			g.byLoop[l] = append(g.byLoop[l], d)
		}
	}
}

// collectRefs gathers every variable access in the unit, attaching
// loop nests and section summaries.
func (a *Analyzer) collectRefs() []*ref {
	var out []*ref
	fortran.WalkStmts(a.DF.Unit.Body, func(s fortran.Stmt) bool {
		var secs []SectionAccess
		haveSecs := false
		if a.Opts.UseSections && a.Summ != nil {
			secs, haveSecs = a.Summ.CallSections(s)
		}
		for _, ac := range a.DF.Accesses(s) {
			if ac.Sym.Kind != fortran.SymScalar && ac.Sym.Kind != fortran.SymArray {
				continue
			}
			r := &ref{stmt: s, acc: ac, nest: nestOf(a.DF.Tree, s)}
			if ac.Ref == nil {
				r.isCall = true
				if haveSecs {
					for k := range secs {
						if secs[k].Sym == ac.Sym && secs[k].Write == ac.Write {
							r.section = &secs[k]
						}
					}
				}
			} else if ac.Sym.IsArray() && len(ac.Ref.Subs) == 0 {
				// Whole-array actual argument.
				r.isCall = true
				if haveSecs {
					for k := range secs {
						if secs[k].Sym == ac.Sym && secs[k].Write == ac.Write {
							r.section = &secs[k]
						}
					}
				}
			}
			out = append(out, r)
		}
		return true
	})
	return out
}

func nestOf(tree *cfg.LoopTree, s fortran.Stmt) []*cfg.Loop {
	l := tree.Innermost(s)
	if do, ok := s.(*fortran.DoStmt); ok {
		// A DO statement's own loop does not enclose it for
		// dependence purposes; Innermost already excludes it, but the
		// bounds expressions live outside the loop.
		_ = do
	}
	if l == nil {
		return nil
	}
	return l.Nest()
}

// commonNest returns the loops enclosing both statements, outermost
// first.
func commonNest(tree *cfg.LoopTree, s1, s2 fortran.Stmt) []*cfg.Loop {
	n1 := nestOf(tree, s1)
	n2 := nestOf(tree, s2)
	var out []*cfg.Loop
	for i := 0; i < len(n1) && i < len(n2); i++ {
		if n1[i] != n2[i] {
			break
		}
		out = append(out, n1[i])
	}
	return out
}

// env builds the test environment at the common nest: loop ranges,
// constants at the source statement, plus user assertions.
func (a *Analyzer) env(src fortran.Stmt) *expr.Env {
	var env *expr.Env
	if a.Opts.UseConstants {
		env = a.DF.EnvAt(src)
	} else {
		env = a.DF.EnvLoopsOnly(src)
	}
	if a.Assertions != nil {
		merged := env.Clone()
		mergeEnv(merged, a.Assertions)
		return merged
	}
	return env
}

// mergeEnv intersects src's knowledge into dst.
func mergeEnv(dst, src *expr.Env) {
	for _, sym := range src.Symbols() {
		dst.SetRange(sym, src.RangeOf(sym))
	}
}

func (a *Analyzer) testRefPair(g *Graph, sym *fortran.Symbol, r1, r2 *ref) {
	nest := commonNest(a.DF.Tree, r1.stmt, r2.stmt)
	// Scalars: dependences on every common level; privatization and
	// reduction recognition (not subscript tests) remove them.
	if sym.Kind == fortran.SymScalar {
		a.emitAllLevels(g, sym, r1, r2, nest, "scalar")
		return
	}
	// Calls with no section information touch the whole array.
	if (r1.isCall && r1.section == nil) || (r2.isCall && r2.section == nil) {
		a.emitAllLevels(g, sym, r1, r2, nest, "call")
		return
	}
	if r1.isCall || r2.isCall {
		res := a.testSections(g, sym, r1, r2, nest)
		if res.independent {
			return
		}
		a.emit(g, sym, r1, r2, nest, res)
		return
	}
	// Element references on both sides: the hierarchical suite.
	res := a.testSubscripts(g, sym, r1, r2, nest)
	if res.independent {
		return
	}
	a.emit(g, sym, r1, r2, nest, res)
}

// testSubscripts runs the dependence equation tests over every
// subscript dimension.
func (a *Analyzer) testSubscripts(g *Graph, sym *fortran.Symbol, r1, r2 *ref, nest []*cfg.Loop) pairResult {
	g.Stats.PairsTested++
	n := len(nest)
	res := pairResult{
		dirs:  make([]dirSet, n),
		dist:  make([]int64, n),
		known: make([]bool, n),
	}
	for k := range res.dirs {
		res.dirs[k] = dirAll
	}
	env := a.env(r1.stmt)
	variant := a.variantFn(nest)
	consts := a.constsFn(r1.stmt)
	sub1 := r1.acc.Ref.Subs
	sub2 := r2.acc.Ref.Subs
	dims := len(sub1)
	if len(sub2) < dims {
		dims = len(sub2)
	}
	provenAll := dims > 0
	for d := 0; d < dims; d++ {
		e := buildEqn(a.DF.Unit, sub1[d], sub2[d], nest, env, variant, consts)
		before := append([]bool(nil), res.known...)
		beforeDist := append([]int64(nil), res.dist...)
		name, outcome := testDim(e, env, nest, &res, a.Opts.UseRanges)
		if name != "" {
			g.Stats.merge(name, outcome)
		}
		if outcome == outcomeIndependent {
			res.independent = true
			res.decidedBy = name
			return res
		}
		if outcome != outcomeProven {
			provenAll = false
		}
		// Delta-style distance consistency between dimensions.
		for k := 0; k < n; k++ {
			if before[k] && res.known[k] && beforeDist[k] != res.dist[k] {
				res.independent = true
				res.decidedBy = "delta"
				g.Stats.merge("delta", outcomeIndependent)
				return res
			}
		}
		// An emptied direction set means no feasible relation.
		for k := 0; k < n; k++ {
			if res.dirs[k] == 0 {
				res.independent = true
				res.decidedBy = name
				return res
			}
		}
	}
	res.proven = provenAll && res.blockedBy == ""
	return res
}

// variantFn reports whether a symbol's value can change between two
// reference instances within the common nest.
func (a *Analyzer) variantFn(nest []*cfg.Loop) func(*fortran.Symbol) bool {
	var defined map[*fortran.Symbol]bool
	if len(nest) > 0 {
		defined = map[*fortran.Symbol]bool{}
		l := nest[0]
		defined[l.Do.Var] = false // common loop vars handled separately
		for _, s := range l.Stmts() {
			for _, ac := range a.DF.Accesses(s) {
				if ac.Write {
					defined[ac.Sym] = true
				}
			}
		}
		for _, cl := range nest {
			defined[cl.Do.Var] = false
		}
	}
	return func(sym *fortran.Symbol) bool {
		if sym.Kind == fortran.SymParam {
			return false
		}
		if defined == nil {
			// No common loop: the references execute once each;
			// loop-variant values from sibling nests differ.
			return sym.Type != fortran.TypeInteger || a.DF.Defined(sym)
		}
		return defined[sym]
	}
}

func (a *Analyzer) constsFn(src fortran.Stmt) func(*fortran.Symbol) (int64, bool) {
	if !a.Opts.UseConstants {
		return nil
	}
	return func(sym *fortran.Symbol) (int64, bool) {
		return a.DF.ConstAt(src, sym)
	}
}

// testSections tests a pair where at least one side is a call with a
// regular-section summary: exact (degenerate) section dimensions go
// through the full subscript suite; ranged ones through the
// direction-aware overlap test.
func (a *Analyzer) testSections(g *Graph, sym *fortran.Symbol, r1, r2 *ref, nest []*cfg.Loop) pairResult {
	g.Stats.PairsTested++
	n := len(nest)
	res := pairResult{
		dirs:      make([]dirSet, n),
		dist:      make([]int64, n),
		known:     make([]bool, n),
		decidedBy: "section",
	}
	for k := range res.dirs {
		res.dirs[k] = dirAll
	}
	env := a.env(r1.stmt)
	variant := a.variantFn(nest)
	consts := a.constsFn(r1.stmt)
	dims := len(sym.Dims)
	for d := 0; d < dims; d++ {
		sd := a.dimDescOf(r1, d, consts)
		dd := a.dimDescOf(r2, d, consts)
		if !sd.known || !dd.known {
			if res.blockedBy == "" {
				res.blockedBy = firstNonEmpty(sd.blocked, dd.blocked, "symbolic")
			}
			continue
		}
		if sd.exact && dd.exact {
			e := eqnFromLinears(sd.lo, dd.lo, nest, env, variant)
			name, outcome := testDim(e, env, nest, &res, a.Opts.UseRanges)
			if name != "" {
				g.Stats.merge(name, outcome)
			}
			if outcome == outcomeIndependent {
				res.independent = true
				res.decidedBy = name
				return res
			}
		} else {
			if !overlapFeasible(sd, dd, nest, env, variant, -1, DirStar) {
				res.independent = true
				g.Stats.merge("section", outcomeIndependent)
				return res
			}
			if a.Opts.UseRanges {
				for k := 0; k < n; k++ {
					for _, dir := range []struct {
						bit dirSet
						d   Direction
					}{{dirBitLt, DirLt}, {dirBitEq, DirEq}, {dirBitGt, DirGt}} {
						if res.dirs[k].has(dir.bit) &&
							!overlapFeasible(sd, dd, nest, env, variant, k, dir.d) {
							res.dirs[k] &^= dir.bit
						}
					}
				}
			}
			g.Stats.merge("section", outcomeMaybe)
		}
		for k := 0; k < n; k++ {
			if res.dirs[k] == 0 {
				res.independent = true
				res.decidedBy = "section"
				return res
			}
		}
	}
	return res
}

// dimDescOf converts one dimension of a reference or section into
// linear bounds.
func (a *Analyzer) dimDescOf(r *ref, d int, consts func(*fortran.Symbol) (int64, bool)) dimDesc {
	if r.section != nil {
		if d >= len(r.section.Dims) || !r.section.Dims[d].Known {
			return dimDesc{known: false, blocked: "symbolic"}
		}
		sd := r.section.Dims[d]
		return dimDesc{
			exact: sd.Lo.Equal(sd.Hi),
			lo:    substConsts(sd.Lo, consts),
			hi:    substConsts(sd.Hi, consts),
			known: true,
		}
	}
	if r.acc.Ref == nil || d >= len(r.acc.Ref.Subs) {
		return dimDesc{known: false, blocked: "symbolic"}
	}
	lin, ok := expr.Linearize(a.DF.Unit, r.acc.Ref.Subs[d])
	if !ok {
		blocked := "nonlinear"
		if containsIndexArray(r.acc.Ref.Subs[d]) {
			blocked = "index-array"
		}
		return dimDesc{known: false, blocked: blocked}
	}
	lin = substConsts(lin, consts)
	return dimDesc{exact: true, lo: lin, hi: lin, known: true}
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Emission

// emitAllLevels emits a conservative dependence at every common level
// plus the loop-independent one; used for scalars and opaque calls.
func (a *Analyzer) emitAllLevels(g *Graph, sym *fortran.Symbol, r1, r2 *ref, nest []*cfg.Loop, test string) {
	n := len(nest)
	res := pairResult{dirs: make([]dirSet, n), dist: make([]int64, n), known: make([]bool, n)}
	for k := range res.dirs {
		res.dirs[k] = dirAll
	}
	res.decidedBy = test
	a.emit(g, sym, r1, r2, nest, res)
}

// emit converts a surviving pairResult into dependence edges: one per
// feasible carrier level in each direction, plus loop-independent
// edges following lexical order.
func (a *Analyzer) emit(g *Graph, sym *fortran.Symbol, r1, r2 *ref, nest []*cfg.Loop, res pairResult) {
	n := len(nest)
	test := res.decidedBy
	if test == "" {
		test = "subscript"
	}
	mark := MarkPending
	if res.proven {
		mark = MarkProven
	}
	add := func(src, dst *ref, level int, dirs []Direction, dist []int64, known []bool) {
		if !src.acc.Write && !dst.acc.Write {
			if !a.Opts.InputDeps {
				return
			}
		}
		d := &Dependence{
			Sym: sym, Src: src.stmt, Dst: dst.stmt,
			SrcRef: src.acc.Ref, DstRef: dst.acc.Ref,
			Class: classify(src.acc.Write, dst.acc.Write),
			Level: level, Dirs: dirs, Dist: dist, Known: known,
			Mark: mark, Test: test, Reason: res.blockedBy,
			Blockers: res.blockSyms,
		}
		if level > 0 {
			d.Loop = nest[level-1]
		}
		g.Deps = append(g.Deps, d)
	}
	// Forward direction (r1 as source): carrier level k needs '=' on
	// all outer levels and '<' at k.
	eqPrefix := true
	for k := 0; k < n; k++ {
		if eqPrefix && res.dirs[k].has(dirBitLt) {
			add(r1, r2, k+1, forwardDirs(res, k), distVec(res, k, false), knownVec(res, k))
		}
		if !res.dirs[k].has(dirBitEq) {
			eqPrefix = false
		}
		if !eqPrefix {
			break
		}
	}
	// Loop-independent: all levels '='.
	allEq := true
	for k := 0; k < n; k++ {
		if !res.dirs[k].has(dirBitEq) {
			allEq = false
		}
	}
	if allEq && r1.stmt != r2.stmt {
		dirs := make([]Direction, n)
		for k := range dirs {
			dirs[k] = DirEq
		}
		if r1.stmt.ID() < r2.stmt.ID() {
			add(r1, r2, 0, dirs, nil, nil)
		} else {
			add(r2, r1, 0, dirs, nil, nil)
		}
	}
	// Backward direction (r2 as source): needs '>' at the carrier.
	if r1 != r2 {
		eqPrefix = true
		for k := 0; k < n; k++ {
			if eqPrefix && res.dirs[k].has(dirBitGt) {
				add(r2, r1, k+1, backwardDirs(res, k), distVec(res, k, true), knownVec(res, k))
			}
			if !res.dirs[k].has(dirBitEq) {
				eqPrefix = false
			}
			if !eqPrefix {
				break
			}
		}
	}
}

func classify(srcWrite, dstWrite bool) Class {
	switch {
	case srcWrite && dstWrite:
		return ClassOutput
	case srcWrite:
		return ClassFlow
	case dstWrite:
		return ClassAnti
	default:
		return ClassInput
	}
}

func forwardDirs(res pairResult, carrier int) []Direction {
	out := make([]Direction, len(res.dirs))
	for k := range out {
		switch {
		case k < carrier:
			out[k] = DirEq
		case k == carrier:
			out[k] = DirLt
		default:
			out[k] = summarize(res.dirs[k])
		}
	}
	return out
}

func backwardDirs(res pairResult, carrier int) []Direction {
	out := make([]Direction, len(res.dirs))
	for k := range out {
		switch {
		case k < carrier:
			out[k] = DirEq
		case k == carrier:
			out[k] = DirLt // after endpoint swap '>' becomes '<'
		default:
			out[k] = summarize(invert(res.dirs[k]))
		}
	}
	return out
}

func invert(s dirSet) dirSet {
	var out dirSet
	if s.has(dirBitLt) {
		out |= dirBitGt
	}
	if s.has(dirBitEq) {
		out |= dirBitEq
	}
	if s.has(dirBitGt) {
		out |= dirBitLt
	}
	return out
}

func summarize(s dirSet) Direction {
	switch s {
	case dirBitLt:
		return DirLt
	case dirBitEq:
		return DirEq
	case dirBitGt:
		return DirGt
	case dirBitLt | dirBitEq:
		return DirLe
	case dirBitGt | dirBitEq:
		return DirGe
	default:
		return DirStar
	}
}

func distVec(res pairResult, carrier int, backward bool) []int64 {
	out := make([]int64, len(res.dist))
	for k, v := range res.dist {
		if backward {
			out[k] = -v
		} else {
			out[k] = v
		}
	}
	return out
}

func knownVec(res pairResult, carrier int) []bool {
	return append([]bool(nil), res.known...)
}

// addControlDeps records control dependences for display and for
// transformation safety checks.
func (a *Analyzer) addControlDeps(g *Graph) {
	cd := a.DF.G.ComputeControlDeps()
	for _, node := range a.DF.G.Nodes {
		if node.Stmt == nil {
			continue
		}
		for _, br := range cd.DepsOf(node) {
			if br.Stmt == nil || br.Stmt == node.Stmt {
				continue
			}
			if _, isDo := br.Stmt.(*fortran.DoStmt); isDo {
				continue // loop structure, not a real branch
			}
			d := &Dependence{
				Sym:   controlSym,
				Src:   br.Stmt,
				Dst:   node.Stmt,
				Class: ClassControl,
				Mark:  MarkProven,
				Test:  "control",
			}
			g.Deps = append(g.Deps, d)
		}
	}
}

// controlSym is the placeholder symbol for control dependences.
var controlSym = &fortran.Symbol{Name: "(control)", Kind: fortran.SymScalar}
