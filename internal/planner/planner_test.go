package planner_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"parascope/internal/core"
	"parascope/internal/planner"
	"parascope/internal/repl"
	"parascope/internal/workloads"
)

func search(t *testing.T, workload string, opts planner.Options) *planner.Result {
	t.Helper()
	w := workloads.ByName(workload)
	if w == nil {
		t.Fatalf("no workload %q", workload)
	}
	res, err := planner.Search(context.Background(), w.Name+".f", w.Source, "", opts, nil)
	if err != nil {
		t.Fatalf("search %s: %v", workload, err)
	}
	return res
}

// TestSearchRanksMultiplePlans is the subsystem's core acceptance
// check: on a real workload the planner returns at least two ranked
// candidate plans, each with an estimated speedup, a replayable step
// sequence anchored at the base hash, and a source diff.
func TestSearchRanksMultiplePlans(t *testing.T) {
	w := workloads.ByName("spec77")
	res, err := planner.Search(context.Background(), w.Name+".f", w.Source, "",
		planner.Options{Interp: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) < 2 {
		t.Fatalf("want >= 2 ranked plans, got %d", len(res.Plans))
	}
	base, err := core.Open(w.Name+".f", w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseHash != planner.SrcHash(base.Save()) {
		t.Fatalf("base hash %s does not fingerprint the printed base source", res.BaseHash)
	}
	if res.WorldsForked == 0 || res.WorldsScored == 0 {
		t.Fatalf("no worlds explored: %+v", res)
	}
	for i, p := range res.Plans {
		if p.Rank != i+1 {
			t.Errorf("plan %d has rank %d", i, p.Rank)
		}
		if i > 0 && p.Score > res.Plans[i-1].Score {
			t.Errorf("plans not ranked by score: %f after %f", p.Score, res.Plans[i-1].Score)
		}
		if p.EstSpeedup <= 1 {
			t.Errorf("plan %s estimated speedup %f, want > 1 (only improving worlds become plans)",
				p.ID, p.EstSpeedup)
		}
		if p.BaseHash != res.BaseHash {
			t.Errorf("plan %s base hash diverges from result base hash", p.ID)
		}
		if len(p.Steps) < 2 || !strings.HasPrefix(p.Steps[0].Line, "unit ") {
			t.Errorf("plan %s steps %v: want unit prefix + at least one transformation", p.ID, p.Steps)
		}
		for _, st := range p.Steps[1:] {
			if !strings.HasPrefix(st.Line, "apply ") {
				t.Errorf("plan %s step %q is not an apply line", p.ID, st.Line)
			}
			if st.Hash == "" {
				t.Errorf("plan %s step %q has no post-hash", p.ID, st.Line)
			}
		}
		if p.Parallelized == 0 {
			t.Errorf("plan %s parallelized no loops", p.ID)
		}
		if !strings.Contains(p.Diff, "+") {
			t.Errorf("plan %s has no diff", p.ID)
		}
		if p.Steps[len(p.Steps)-1].Hash != planner.SrcHash(p.Source) {
			t.Errorf("plan %s final step hash does not fingerprint its source", p.ID)
		}
	}
}

// TestPlanReplayByteIdentical replays the top plan's step lines
// through a fresh REPL — the normal mutation path — and requires the
// resulting source to match the plan's world byte for byte (that is
// what makes the per-step hash chain trustworthy at apply time).
func TestPlanReplayByteIdentical(t *testing.T) {
	for _, workload := range []string{"direct", "spec77", "interior"} {
		w := workloads.ByName(workload)
		res, err := planner.Search(context.Background(), w.Name+".f", w.Source, "",
			planner.Options{Interp: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Plans) == 0 {
			t.Fatalf("%s: no plans", workload)
		}
		p := res.Plans[0]
		s, err := core.Open(w.Name+".f", w.Source)
		if err != nil {
			t.Fatal(err)
		}
		r := repl.New(s, &strings.Builder{})
		for i, st := range p.Steps {
			if err := r.Execute(st.Line); err != nil {
				t.Fatalf("%s: replay step %d (%q): %v", workload, i+1, st.Line, err)
			}
			if h := planner.SrcHash(s.Save()); h != st.Hash {
				t.Fatalf("%s: hash chain broke at step %d (%q)", workload, i+1, st.Line)
			}
		}
		if got := s.Save(); got != p.Source {
			t.Fatalf("%s: replayed source differs from plan world source:\n%s", workload,
				planner.Diff(p.Source, got))
		}
	}
}

// TestInterpScoring: with interpretation on, finalists carry a
// simulated speedup > 1 measured by the parallel interpreter (the
// base program runs the same input, so outputs were also validated).
func TestInterpScoring(t *testing.T) {
	res := search(t, "direct", planner.Options{Interp: true})
	if len(res.Plans) == 0 {
		t.Fatal("no plans")
	}
	anySim := false
	for _, p := range res.Plans {
		if p.SimSpeedup > 1 {
			anySim = true
		}
	}
	if !anySim {
		t.Fatalf("no plan carries an interpreted speedup > 1: %+v", res.Plans)
	}
}

// TestSearchRespectsWorldBudget: the total fork budget bounds
// WorldsForked no matter the beam shape.
func TestSearchRespectsWorldBudget(t *testing.T) {
	res := search(t, "spec77", planner.Options{MaxWorlds: 3, Interp: false})
	if res.WorldsForked > 3 {
		t.Fatalf("forked %d worlds with MaxWorlds=3", res.WorldsForked)
	}
}

// TestSearchIsDeterministic: searches that exhaust the world budget
// return the same ranked plans every time, whatever order the worker
// goroutines run in, so the plan cache can key on source and options.
func TestSearchIsDeterministic(t *testing.T) {
	for _, name := range []string{"shear", "interior"} {
		var want string
		for i := 0; i < 20; i++ {
			res := search(t, name, planner.Options{Workers: 4, Timeout: -1})
			var b strings.Builder
			fmt.Fprintf(&b, "forked %d scored %d discarded %d\n",
				res.WorldsForked, res.WorldsScored, res.WorldsDiscarded)
			for _, p := range res.Plans {
				fmt.Fprintf(&b, "%d %s %.9g", p.Rank, p.ID, p.Score)
				for _, st := range p.Steps {
					fmt.Fprintf(&b, " | %s", st.Line)
				}
				b.WriteString("\n")
			}
			if i == 0 {
				want = b.String()
				continue
			}
			if got := b.String(); got != want {
				t.Fatalf("%s search %d ranked differently:\n%s\nfirst search:\n%s", name, i+1, got, want)
			}
		}
	}
}

// TestSearchDeadlineReturnsPartial: an expired deadline ends the
// search cleanly with whatever was found — never an error.
func TestSearchDeadlineReturnsPartial(t *testing.T) {
	w := workloads.ByName("spec77")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	res, err := planner.Search(ctx, w.Name+".f", w.Source, "", planner.Options{Interp: false}, nil)
	if err != nil {
		t.Fatalf("expired deadline must not error: %v", err)
	}
	if len(res.Plans) != 0 || res.WorldsForked != 0 {
		t.Fatalf("canceled search still explored: %+v", res)
	}
}

// TestSearchUnknownUnit surfaces a clean error.
func TestSearchUnknownUnit(t *testing.T) {
	w := workloads.ByName("direct")
	_, err := planner.Search(context.Background(), w.Name+".f", w.Source, "nosuch",
		planner.Options{Interp: false}, nil)
	if err == nil {
		t.Fatal("want error for unknown unit")
	}
}

// TestConcurrentSearches runs independent searches in parallel —
// worlds share no mutable state across searches either, which -race
// verifies.
func TestConcurrentSearches(t *testing.T) {
	var wg sync.WaitGroup
	for _, workload := range []string{"direct", "onedim", "interior", "direct"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			search(t, name, planner.Options{Interp: true, Timeout: 30 * time.Second})
		}(workload)
	}
	wg.Wait()
}

func TestDiff(t *testing.T) {
	got := planner.Diff("a\nb\nc\n", "a\nx\nc\n")
	for _, want := range []string{"- b", "+ x", "1 unchanged"} {
		if !strings.Contains(got, want) {
			t.Errorf("diff missing %q:\n%s", want, got)
		}
	}
	if planner.Diff("same\n", "same\n") != "  ... 1 unchanged ...\n" {
		t.Errorf("identical inputs should collapse entirely: %q", planner.Diff("same\n", "same\n"))
	}
}

// TestSearchCompiledGroundTruth opts finalists into the pedc compile
// backend: plans that survive interp validation get a real wall-clock
// speedup measured from native binaries. Timing is hardware-dependent,
// so the test only asserts that the measurement happened (non-zero)
// and that it never resurrects an interp-rejected plan.
func TestSearchCompiledGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("compile backend builds binaries; skipped in -short mode")
	}
	res := search(t, "onedim", planner.Options{
		Interp: true, Compiled: true, CompileCache: t.TempDir(),
		MaxWorlds: 40, TopPlans: 2,
	})
	if len(res.Plans) == 0 {
		t.Fatal("no plans found")
	}
	measured := 0
	for _, p := range res.Plans {
		if p.CompiledSpeedup > 0 {
			measured++
		}
	}
	if measured == 0 {
		t.Fatalf("no plan carries a compiled speedup: %+v", res.Plans)
	}
}
