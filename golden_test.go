// Golden test for analysis output: every pane Ped shows the user,
// rendered for each workload before and after its scripted session,
// must match a committed reference byte for byte. The differential
// tests compare two runs of the same code; this one pins the output
// itself, so a change to the analyses that alters what a user sees
// fails here even when incremental and scratch analysis still agree.
//
// After an intended output change, a failing run writes the full new
// output to a temporary file and names it; review it and copy it over
// testdata/analysis.golden.
package parascope

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"parascope/internal/repl"
	"parascope/internal/workloads"
)

const goldenPath = "testdata/analysis.golden"

// renderAnalysis prints the unit list and saved source, then for each
// unit its loop list and performance estimate, and for each loop its
// summary, dependence pane and variable pane.
func renderAnalysis(t *testing.T, r *repl.REPL, out *bytes.Buffer) {
	t.Helper()
	run := func(line string) {
		fmt.Fprintf(out, "> %s\n", line)
		if err := r.Execute(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	run("units")
	run("save")
	for _, u := range r.Session.File.Units {
		run("unit " + u.Name)
		run("loops")
		run("perf")
		for i := range r.Session.Loops() {
			run(fmt.Sprintf("loop %d", i+1))
			run("deps")
			run("vars")
		}
	}
}

func TestAnalysisGolden(t *testing.T) {
	var out bytes.Buffer
	for _, w := range workloads.All() {
		// Rendering moves the selection, and scripts start from a
		// fresh session's, so each side gets its own session.
		for _, scripted := range []bool{false, true} {
			s, err := w.Session()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			side := "before"
			if scripted {
				side = "after"
				if _, err := w.Script(s); err != nil {
					t.Fatalf("%s: script: %v", w.Name, err)
				}
			}
			fmt.Fprintf(&out, "=== %s: %s script\n", w.Name, side)
			renderAnalysis(t, repl.New(s, &out), &out)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Errorf("read reference: %v", err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("analysis output differs from %s at line %d:\n got: %q\nwant: %q", goldenPath, i+1, gl[i], wl[i])
			break
		}
	}
	f, err := os.CreateTemp("", "analysis-*.golden")
	if err == nil {
		_, err = f.Write(got)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatalf("save new output: %v", err)
	}
	t.Fatalf("analysis output (%d lines, reference %d) does not match %s; full output in %s",
		len(gl), len(wl), goldenPath, f.Name())
}
