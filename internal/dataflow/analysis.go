package dataflow

import (
	"sort"

	"parascope/internal/cfg"
	"parascope/internal/fortran"
)

// Analysis bundles the scalar data-flow results for one unit.
type Analysis struct {
	Unit *fortran.Unit
	G    *cfg.Graph
	Tree *cfg.LoopTree
	Eff  SideEffects

	accesses map[*cfg.Node][]Access
	written  map[*fortran.Symbol]bool

	liveIn  map[*cfg.Node]map[*fortran.Symbol]bool
	liveOut map[*cfg.Node]map[*fortran.Symbol]bool

	consts map[*cfg.Node]map[*fortran.Symbol]constVal
}

// Analyze runs all scalar analyses on unit u. A nil eff defaults to
// conservative call effects.
func Analyze(u *fortran.Unit, eff SideEffects) *Analysis {
	if eff == nil {
		eff = ConservativeEffects{}
	}
	a := &Analysis{
		Unit:     u,
		G:        cfg.Build(u),
		Tree:     cfg.BuildLoopTree(u),
		Eff:      eff,
		accesses: map[*cfg.Node][]Access{},
		written:  map[*fortran.Symbol]bool{},
	}
	for _, n := range a.G.Nodes {
		if n.Stmt == nil {
			continue
		}
		acc := StmtAccesses(u, n.Stmt, eff)
		a.accesses[n] = acc
		for _, ac := range acc {
			if ac.Write {
				a.written[ac.Sym] = true
			}
		}
	}
	a.solveLiveness()
	a.propagateConstants()
	return a
}

// Accesses returns the accesses of the statement's node.
func (a *Analysis) Accesses(s fortran.Stmt) []Access {
	return a.accesses[a.G.NodeFor(s)]
}

// Defined reports whether any statement of the unit writes sym,
// fully or partially (call side effects included).
func (a *Analysis) Defined(sym *fortran.Symbol) bool { return a.written[sym] }

// ---------------------------------------------------------------------------
// Liveness

func (a *Analysis) solveLiveness() {
	a.liveIn = map[*cfg.Node]map[*fortran.Symbol]bool{}
	a.liveOut = map[*cfg.Node]map[*fortran.Symbol]bool{}
	for _, node := range a.G.Nodes {
		a.liveIn[node] = map[*fortran.Symbol]bool{}
		a.liveOut[node] = map[*fortran.Symbol]bool{}
	}
	changed := true
	for changed {
		changed = false
		// Backward problem: iterate nodes in reverse index order as a
		// decent approximation of reverse program order.
		for i := len(a.G.Nodes) - 1; i >= 0; i-- {
			node := a.G.Nodes[i]
			out := a.liveOut[node]
			for _, s := range node.Succs {
				for sym := range a.liveIn[s] {
					if !out[sym] {
						out[sym] = true
						changed = true
					}
				}
			}
			in := a.liveIn[node]
			// in = uses ∪ (out - full defs)
			defsFull := map[*fortran.Symbol]bool{}
			for _, ac := range a.accesses[node] {
				if ac.Write && !ac.Partial {
					defsFull[ac.Sym] = true
				}
			}
			for _, ac := range a.accesses[node] {
				if !ac.Write && !in[ac.Sym] {
					in[ac.Sym] = true
					changed = true
				}
			}
			for sym := range out {
				if !defsFull[sym] && !in[sym] {
					in[sym] = true
					changed = true
				}
			}
		}
	}
}

// UpwardExposed returns the variables whose values may be consumed
// before the unit assigns them — liveness at procedure entry. A call
// only truly *reads* its upward-exposed variables; reads satisfied by
// the callee's own writes stay internal.
func (a *Analysis) UpwardExposed() map[*fortran.Symbol]bool {
	out := map[*fortran.Symbol]bool{}
	for sym, live := range a.liveIn[a.G.Entry] {
		if live {
			out[sym] = true
		}
	}
	return out
}

// LiveOut reports whether sym is live after statement s.
func (a *Analysis) LiveOut(s fortran.Stmt, sym *fortran.Symbol) bool {
	node := a.G.NodeFor(s)
	return node != nil && a.liveOut[node][sym]
}

// LiveOutOfLoop reports whether sym is live on any loop-exit edge of
// the loop (i.e. its value may be consumed after the loop finishes).
func (a *Analysis) LiveOutOfLoop(l *cfg.Loop, sym *fortran.Symbol) bool {
	header := a.G.NodeFor(l.Do)
	if header == nil {
		return true
	}
	inLoop := map[*cfg.Node]bool{header: true}
	for _, s := range l.Stmts() {
		if n := a.G.NodeFor(s); n != nil {
			inLoop[n] = true
		}
	}
	for n := range inLoop {
		for _, succ := range n.Succs {
			if !inLoop[succ] && a.liveIn[succ][sym] {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Constant propagation

type constVal struct {
	known bool // known constant (otherwise ⊥/⊤ collapsed to unknown)
	val   int64
}

// propagateConstants runs a forward integer constant propagation:
// state maps integer scalars to known values at node entry.
func (a *Analysis) propagateConstants() {
	a.consts = map[*cfg.Node]map[*fortran.Symbol]constVal{}
	// Iterate to fixpoint. The lattice per symbol is
	// unknown-top → const → bottom; we start optimistic at top
	// (absent) and meet over predecessors.
	in := map[*cfg.Node]map[*fortran.Symbol]constVal{}
	out := map[*cfg.Node]map[*fortran.Symbol]constVal{}
	meet := func(dst, src map[*fortran.Symbol]constVal, first bool) (map[*fortran.Symbol]constVal, bool) {
		if first {
			cp := make(map[*fortran.Symbol]constVal, len(src))
			for k, v := range src {
				cp[k] = v
			}
			return cp, true
		}
		changed := false
		for k, v := range dst {
			sv, ok := src[k]
			if !ok || sv != v {
				delete(dst, k)
				changed = true
			}
		}
		return dst, changed
	}
	// Evaluate an expression under a constant state.
	var eval func(state map[*fortran.Symbol]constVal, e fortran.Expr) (int64, bool)
	eval = func(state map[*fortran.Symbol]constVal, e fortran.Expr) (int64, bool) {
		switch x := e.(type) {
		case *fortran.IntLit:
			return x.Val, true
		case *fortran.VarRef:
			if len(x.Subs) > 0 || x.Sym == nil {
				return 0, false
			}
			if x.Sym.Kind == fortran.SymParam {
				if il, ok := x.Sym.Value.(*fortran.IntLit); ok {
					return il.Val, true
				}
				return 0, false
			}
			if cv, ok := state[x.Sym]; ok && cv.known {
				return cv.val, true
			}
			return 0, false
		case *fortran.Unary:
			if x.Op == fortran.TokMinus {
				if v, ok := eval(state, x.X); ok {
					return -v, true
				}
			}
			return 0, false
		case *fortran.Binary:
			lv, lok := eval(state, x.X)
			rv, rok := eval(state, x.Y)
			if !lok || !rok {
				return 0, false
			}
			switch x.Op {
			case fortran.TokPlus:
				return lv + rv, true
			case fortran.TokMinus:
				return lv - rv, true
			case fortran.TokStar:
				return lv * rv, true
			case fortran.TokSlash:
				if rv != 0 {
					return lv / rv, true
				}
			}
			return 0, false
		}
		return 0, false
	}
	transfer := func(node *cfg.Node, state map[*fortran.Symbol]constVal) map[*fortran.Symbol]constVal {
		res := make(map[*fortran.Symbol]constVal, len(state))
		for k, v := range state {
			res[k] = v
		}
		if node.Stmt == nil {
			return res
		}
		switch st := node.Stmt.(type) {
		case *fortran.AssignStmt:
			sym := st.Lhs.Sym
			if sym != nil && sym.Kind == fortran.SymScalar && sym.Type == fortran.TypeInteger && len(st.Lhs.Subs) == 0 {
				if v, ok := eval(state, st.Rhs); ok {
					res[sym] = constVal{known: true, val: v}
				} else {
					delete(res, sym)
				}
				return res
			}
		}
		// Any other statement: invalidate symbols it may write.
		for _, ac := range a.accesses[node] {
			if ac.Write {
				delete(res, ac.Sym)
			}
		}
		return res
	}
	changedGlobal := true
	for iter := 0; changedGlobal && iter < 100; iter++ {
		changedGlobal = false
		for _, node := range a.G.Nodes {
			first := true
			var st map[*fortran.Symbol]constVal
			for _, p := range node.Preds {
				po := out[p]
				if po == nil {
					// Unvisited predecessor: optimistic TOP, skip.
					continue
				}
				st, _ = meet(st, po, first)
				first = false
			}
			if st == nil {
				st = map[*fortran.Symbol]constVal{}
			}
			in[node] = st
			newOut := transfer(node, st)
			if !constStateEqual(out[node], newOut) {
				out[node] = newOut
				changedGlobal = true
			}
		}
	}
	a.consts = in
}

func constStateEqual(a, b map[*fortran.Symbol]constVal) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// ConstAt returns sym's known constant value at entry to statement s.
func (a *Analysis) ConstAt(s fortran.Stmt, sym *fortran.Symbol) (int64, bool) {
	node := a.G.NodeFor(s)
	if node == nil {
		return 0, false
	}
	cv, ok := a.consts[node][sym]
	if !ok || !cv.known {
		return 0, false
	}
	return cv.val, true
}

// ConstSymbols returns, for statement s, all integer scalars with a
// known constant value at its entry, sorted by name.
func (a *Analysis) ConstSymbols(s fortran.Stmt) []*fortran.Symbol {
	node := a.G.NodeFor(s)
	if node == nil {
		return nil
	}
	var out []*fortran.Symbol
	for sym, cv := range a.consts[node] {
		if cv.known {
			out = append(out, sym)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
