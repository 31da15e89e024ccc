package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/repl"
	"parascope/internal/server"
	"parascope/internal/view"
)

// Op is one request of a seeded user session, with the answer a
// correct daemon must give. Exactly one request field is set,
// according to Verb.
type Op struct {
	Verb      string                   `json:"verb"`
	Class     string                   `json:"class"`
	Open      *server.OpenRequest      `json:"open,omitempty"`
	Select    *server.SelectRequest    `json:"select,omitempty"`
	Deps      *server.DepQuery         `json:"deps,omitempty"`
	Line      string                   `json:"line,omitempty"`
	Classify  *server.ClassifyRequest  `json:"classify,omitempty"`
	Edit      *server.EditRequest      `json:"edit,omitempty"`
	Transform *server.TransformRequest `json:"transform,omitempty"`
	Run       *server.RunRequest       `json:"run,omitempty"`
	Want      Want                     `json:"want"`
}

// Want is the expected answer of an Op.
type Want struct {
	Units  []string               `json:"units,omitempty"`
	Select *server.SelectResponse `json:"select,omitempty"`
	// Deps is the dependence listing as signatures; Scratch marks a
	// listing taken from a from-scratch core.Open of the session's
	// source, compared without marks and variable classes.
	Deps    []string `json:"deps,omitempty"`
	Scratch bool     `json:"scratch,omitempty"`
	Output  string   `json:"output,omitempty"`
	Plans   []string `json:"plans,omitempty"`
	Hash    string   `json:"hash,omitempty"`
	Applied int      `json:"applied,omitempty"`
	Backend string   `json:"backend,omitempty"`
	// Rung is the reanalysis rung the in-process replay took.
	Rung string `json:"rung,omitempty"`
}

// Script is one user session: an open, its requests, and a close.
type Script struct {
	Prog *Program `json:"-"`
	Name string   `json:"program"`
	Ops  []Op     `json:"ops"`
}

// Latency classes. Every request belongs to one.
const (
	classOpen       = "open"
	classRead       = "read"
	classMark       = "mark"
	classEdit       = "edit"
	classXform      = "xform"
	classClose      = "close"
	classPlan       = "plan"
	classRunInterp  = "run_interp"
	classRunCompile = "run_compile"
)

var allClasses = []string{classOpen, classRead, classMark, classEdit, classXform, classClose,
	classPlan, classRunInterp, classRunCompile}

// coreSession is the benchmark's in-process stand-in for one daemon
// session: a core.Session driven through the same entry points the
// daemon's handlers call.
type coreSession struct {
	s  *core.Session
	rp *repl.REPL
}

func openCore(p *Program, obs core.PhaseObserver) (*coreSession, error) {
	s, err := core.OpenObserved(p.Path, p.Source, 0, obs)
	if err != nil {
		return nil, err
	}
	return &coreSession{s: s, rp: repl.New(s, io.Discard)}, nil
}

func (cs *coreSession) exec(line string) (string, error) {
	var buf bytes.Buffer
	cs.rp.Out = &buf
	err := cs.rp.Execute(line)
	cs.rp.Done = false
	return buf.String(), err
}

// apply runs op against the session the way the daemon's handler
// does and returns the text output, if any. Open, close, plan,
// apply-plan and run are not session mutations and are handled by
// the callers.
func (cs *coreSession) apply(op *Op) (string, error) {
	s := cs.s
	switch op.Verb {
	case "select":
		if op.Select.Unit != "" {
			if err := s.SelectUnit(op.Select.Unit); err != nil {
				return "", err
			}
		}
		if op.Select.Loop != 0 {
			return "", s.SelectLoop(op.Select.Loop)
		}
		return "", nil
	case "deps":
		return "", nil
	case "cmd":
		return cs.exec(op.Line)
	case "classify":
		c, ok := varClasses[op.Classify.Class]
		if !ok {
			return "", fmt.Errorf("unknown class %q", op.Classify.Class)
		}
		return "", s.Classify(op.Classify.Var, c)
	case "edit":
		if op.Edit.Delete {
			return "", s.DeleteStmt(op.Edit.Stmt)
		}
		return "", s.EditStmt(op.Edit.Stmt, op.Edit.Text)
	case "transform":
		return cs.exec(transformLine(op.Transform))
	case "undo":
		return "", s.Undo()
	}
	return "", fmt.Errorf("verb %s has no session form", op.Verb)
}

var varClasses = map[string]core.VarClass{
	"shared": core.ClassShared, "private": core.ClassPrivate, "reduction": core.ClassReduction,
}

// transformLine is the REPL line the daemon runs for a transform
// request.
func transformLine(t *server.TransformRequest) string {
	verb := "apply"
	if t.CheckOnly {
		verb = "check"
	}
	line := verb + " " + t.Name
	if len(t.Args) > 0 {
		line += " " + strings.Join(t.Args, " ")
	}
	return line
}

func (cs *coreSession) selectResponse() *server.SelectResponse {
	s := cs.s
	resp := &server.SelectResponse{Unit: s.CurrentUnit().Name, Summary: view.DepSummary(s)}
	if sel := s.SelectedLoop(); sel != nil {
		for i, l := range s.Loops() {
			if l.Do == sel.Do {
				resp.Loop = i + 1
			}
		}
	}
	return resp
}

// depInfos renders the selected loop's dependences as the daemon's
// wire rows.
func depInfos(s *core.Session) []server.DepInfo {
	classes := map[string]core.VarClass{}
	for _, row := range s.VariablePane() {
		classes[row.Sym.Name] = row.Class
	}
	var out []server.DepInfo
	for _, d := range s.SelectionDeps(core.DepFilter{}) {
		out = append(out, server.DepInfo{
			Class:   d.Class.String(),
			Sym:     d.Sym.Name,
			Dir:     d.DirString(),
			Level:   d.Level,
			SrcStmt: d.Src.ID(),
			DstStmt: d.Dst.ID(),
			Mark:    d.Mark.String(),
			Private: classes[d.Sym.Name] != core.ClassShared,
		})
	}
	return out
}

// filterDeps applies a dependence query with the daemon's semantics.
func filterDeps(all []server.DepInfo, q server.DepQuery) []server.DepInfo {
	var out []server.DepInfo
	for _, d := range all {
		if q.Carried && d.Level == 0 {
			continue
		}
		if q.HideRejected && d.Mark == dep.MarkRejected.String() {
			continue
		}
		if q.Sym != "" && d.Sym != strings.ToLower(q.Sym) {
			continue
		}
		if len(q.Classes) > 0 {
			ok := false
			for _, c := range q.Classes {
				ok = ok || d.Class == c
			}
			if !ok {
				continue
			}
		}
		if q.HidePrivate && d.Private {
			continue
		}
		out = append(out, d)
	}
	return out
}

// depSigs renders a listing as sorted signatures. Dependence IDs are
// left out: the patch rung renumbers edges by design. Without full,
// marks and variable classes are left out too, since a from-scratch
// analysis carries no user overlay.
func depSigs(ds []server.DepInfo, full bool) []string {
	out := make([]string, 0, len(ds))
	for _, d := range ds {
		sig := fmt.Sprintf("%s %s %s l%d #%d->#%d", d.Class, d.Sym, d.Dir, d.Level, d.SrcStmt, d.DstStmt)
		if full {
			sig += fmt.Sprintf(" %s private=%t", d.Mark, d.Private)
		}
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// scratchDeps is the listing a from-scratch analysis of the session's
// current source gives for the same unit and loop selection.
func (cs *coreSession) scratchDeps(path string) ([]string, error) {
	fresh, err := core.Open(path, cs.s.Save())
	if err != nil {
		return nil, fmt.Errorf("scratch reopen: %v", err)
	}
	if err := fresh.SelectUnit(cs.s.CurrentUnit().Name); err != nil {
		return nil, err
	}
	if resp := cs.selectResponse(); resp.Loop > 0 {
		if err := fresh.SelectLoop(resp.Loop); err != nil {
			return nil, err
		}
	}
	return depSigs(depInfos(fresh), false), nil
}

func unitNames(s *core.Session) []string {
	var out []string
	for _, u := range s.File.Units {
		out = append(out, u.Name)
	}
	return out
}
