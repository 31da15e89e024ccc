package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"parascope/internal/core"
	"parascope/internal/server"
	"parascope/internal/workloads"
)

func streamBytes(t *testing.T, scripts []*Script) []byte {
	t.Helper()
	data, err := json.Marshal(scripts)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func poolBytes(pool []*Program) string {
	var b strings.Builder
	for _, p := range pool {
		b.WriteString(p.Path + "\x00" + p.Source + "\x00")
	}
	return b.String()
}

// TestSameSeedSameInputs: a seed fixes the program pools and the op
// streams byte for byte; another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	if a, b := poolBytes(editPool(1)), poolBytes(editPool(1)); a != b {
		t.Error("edit pool differs between two builds with seed 1")
	}
	if a, b := poolBytes(editPool(1)), poolBytes(editPool(2)); a == b {
		t.Error("edit pool is the same for seeds 1 and 2")
	}
	for _, wl := range []string{"edit-session", "run"} {
		prepare := workloadByName(wl).prepare
		s1, err := prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := prepare(1)
		if err != nil {
			t.Fatal(err)
		}
		other, err := prepare(2)
		if err != nil {
			t.Fatal(err)
		}
		if string(streamBytes(t, s1)) != string(streamBytes(t, again)) {
			t.Errorf("%s: op stream differs between two builds with seed 1", wl)
		}
		if string(streamBytes(t, s1)) == string(streamBytes(t, other)) {
			t.Errorf("%s: op stream is the same for seeds 1 and 2", wl)
		}
	}
	// The plan stream is a search per variant; check a few variants.
	plan := func(seed int64) []byte {
		var out []*Script
		for i := 0; i < 3; i++ {
			r := rand.New(rand.NewSource(scriptSeed(seed, i)))
			sc, err := genPlanScript(suiteVariant(workloads.ByName("onedim"), r))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sc)
		}
		return streamBytes(t, out)
	}
	if string(plan(1)) != string(plan(1)) {
		t.Error("plan: op stream differs between two builds with seed 1")
	}
	if string(plan(1)) == string(plan(2)) {
		t.Error("plan: op stream is the same for seeds 1 and 2")
	}
}

// fakeDaemon answers an open, then serves body for every other
// request.
func fakeDaemon(units []string, body func(path string) string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/sessions":
			w.WriteHeader(http.StatusCreated)
			_ = json.NewEncoder(w).Encode(server.OpenResponse{ID: "s1", Units: units})
		case r.Method == http.MethodDelete:
			w.WriteHeader(http.StatusNoContent)
		default:
			_, _ = w.Write([]byte(body(r.URL.Path)))
		}
	}))
}

// playAgainst runs sc against a daemon and returns how many requests
// failed.
func playAgainst(t *testing.T, base string, sc *Script) int {
	t.Helper()
	c := &client{base: base, http: newHTTPClient(1), tracer: &Tracer{}}
	c.runScript(sc, 0, func() bool { return false })
	failed := 0
	for _, s := range c.samples {
		if !s.ok {
			failed++
		}
	}
	return failed
}

// TestCheckerCountsCorruption: a listing with one dependence dropped
// and a run output with one byte flipped each count as a failed
// request, while the faithful answers pass.
func TestCheckerCountsCorruption(t *testing.T) {
	w := workloads.ByName("direct")
	p := newProgram(w.Name, w.Name+".f", w.Source, w.Input)
	s, err := core.Open(p.Path, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	deps := depInfos(s)
	if len(deps) == 0 {
		t.Fatal("loop 1 of direct has no dependences")
	}
	q := server.DepQuery{}
	open := Op{Verb: "open", Class: classOpen, Open: &server.OpenRequest{Path: p.Path, Source: p.Source},
		Want: Want{Units: unitNames(s)}}
	depsOp := Op{Verb: "deps", Class: classRead, Deps: &q, Want: Want{Deps: depSigs(deps, true)}}
	sc := &Script{Prog: p, Name: p.Name, Ops: []Op{open, depsOp, {Verb: "close", Class: classClose}}}
	for _, tc := range []struct {
		name   string
		listed []server.DepInfo
		failed int
	}{
		{"faithful", deps, 0},
		{"dropped dependence", deps[1:], 1},
	} {
		body, _ := json.Marshal(server.DepsResponse{Deps: tc.listed})
		d := fakeDaemon(unitNames(s), func(string) string { return string(body) })
		if got := playAgainst(t, d.URL, sc); got != tc.failed {
			t.Errorf("deps %s: %d failed requests, want %d", tc.name, got, tc.failed)
		}
		d.Close()
	}

	runSc, err := genRunScript(p)
	if err != nil {
		t.Fatal(err)
	}
	want := runSc.Ops[1].Want
	flipped := []byte(want.Output)
	flipped[len(flipped)/2] ^= 1
	runOnly := &Script{Prog: p, Name: p.Name, Ops: []Op{runSc.Ops[0], runSc.Ops[1], runSc.Ops[len(runSc.Ops)-1]}}
	for _, tc := range []struct {
		name   string
		output string
		failed int
	}{
		{"faithful", want.Output, 0},
		{"flipped byte", string(flipped), 1},
	} {
		body, _ := json.Marshal(server.RunResponse{Output: tc.output, Backend: want.Backend})
		d := fakeDaemon(unitNames(s), func(string) string { return string(body) })
		if got := playAgainst(t, d.URL, runOnly); got != tc.failed {
			t.Errorf("run %s: %d failed requests, want %d", tc.name, got, tc.failed)
		}
		d.Close()
	}
}

// TestSmokeRuns: a short run of each benchmark workload answers every
// request correctly.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet per workload")
	}
	for _, wl := range allWorkloads {
		if wl.held != "" {
			continue
		}
		res, err := bench(wl, defaultSeed, 2*time.Second, false)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
			t.Errorf("%s: attempted %d, failed %d", wl.name, res.Attempted, res.Failed)
		}
		for _, m := range endToEnd {
			if got, ok := res.Metrics[m[0]]; !ok || got.Unit != m[1] {
				t.Errorf("%s: metric %s = %+v, want unit %s", wl.name, m[0], got, m[1])
			}
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the metrics the
// program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	pairs := func(xs []struct{ Name, Unit string }) [][2]string {
		var out [][2]string
		for _, x := range xs {
			out = append(out, [2]string{x.Name, x.Unit})
		}
		return out
	}
	if got := pairs(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, program prints %v", got, endToEnd)
	}
	if got := pairs(spec.PerLayer); !reflect.DeepEqual(got, perLayerNames()) {
		t.Errorf("per_layer %v, program prints %v", got, perLayerNames())
	}
	var names []string
	for _, w := range spec.Work {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range allWorkloads {
		if w.held == "" {
			want = append(want, w.name)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
}
