package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	_ "embed"

	"parascope/internal/workloads"
)

// defaultSeed is the seed golden run outputs are committed for.
const defaultSeed = 1

// workload is one traffic mix.
type workload struct {
	name    string
	clients int
	// work lists the latency classes reported as work_p50_ms: the
	// requests the workload exists to measure.
	work map[string]bool
	// held says why the workload is left out of BENCHMARK.json; it is
	// empty for a benchmark workload.
	held string
	// prepare builds the seeded op stream with its expected answers.
	prepare func(seed int64) ([]*Script, error)
	// warmBuilds makes set-up run every program once on the compile
	// backend, so the measured runs hit the build cache.
	warmBuilds bool
	// fill lists programs opened once on every manager before timing,
	// so each analysis cache starts in its steady state.
	fill func(seed int64, scripts []*Script) ([]*Program, error)
	// round is the number of consecutive sessions that make up one
	// whole mix; metrics are taken over whole rounds.
	round func(scripts []*Script) int
	// roundsPerBlock groups whole rounds into the blocks whose
	// medians are reported: a block lasts about two seconds.
	roundsPerBlock int
}

// poolOf is the edit-session fill: the pool itself, so opens hit.
func poolOf(_ int64, scripts []*Script) ([]*Program, error) {
	seen := map[string]bool{}
	var out []*Program
	for _, sc := range scripts {
		if !seen[sc.Name] {
			seen[sc.Name] = true
			out = append(out, sc.Prog)
		}
	}
	return out, nil
}

// planFill is the plan workload's fill: as many variants as an
// analysis cache holds, drawn apart from the stream, so every cache is
// full before timing and each stream open evicts an entry — a
// long-running daemon's steady state, whatever a run's throughput.
func planFill(seed int64, scripts []*Script) ([]*Program, error) {
	r := rand.New(rand.NewSource(-seed))
	var out []*Program
	for i := 0; i < analysisCacheSize; i++ {
		w := workloads.ByName(scripts[i%len(scripts)].Name)
		out = append(out, suiteVariant(w, r))
	}
	return out, nil
}

func wholeStream(scripts []*Script) int { return len(scripts) }

// oneOfEach is the number of distinct programs: the plan stream
// interleaves one variant of each.
func oneOfEach(scripts []*Script) int {
	names := map[string]bool{}
	for _, sc := range scripts {
		names[sc.Name] = true
	}
	return len(names)
}

var allWorkloads = []*workload{
	{
		name:    "edit-session",
		clients: 2,
		work:    map[string]bool{classMark: true, classEdit: true, classXform: true},
		prepare: editScripts,
		fill:    poolOf,
		round:   wholeStream,

		roundsPerBlock: 1,
	},
	{
		name:    "plan",
		clients: 1,
		work:    map[string]bool{classPlan: true},
		held: "a search that spends the planner's whole world budget (shear, interior) " +
			"returns plans that depend on goroutine scheduling, so its plan checks fail",
		prepare: planScripts,
		fill:    planFill,
		round:   oneOfEach,

		roundsPerBlock: 6,
	},
	{
		name: "run",
		// Two clients keep both cores busy. With one, each request
		// waits on a chain of wake-ups (gateway, actor, child process)
		// that stolen CPU time stretches, and the spread across seeds
		// was two to six times as wide.
		clients:    2,
		work:       map[string]bool{classRunInterp: true, classRunCompile: true},
		prepare:    runScripts,
		warmBuilds: true,
		round:      wholeStream,

		roundsPerBlock: 4,
	},
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scriptSeed derives an independent stream per script, so scripts can
// be generated concurrently and still depend on the seed alone.
func scriptSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 }

// parallel runs fn(i) for i in [0, n) on two goroutines.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	var next sync.Mutex
	cursor := 0
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// editScriptsPer is how many sessions each pool program gets per
// cycle: six for a suite program, one for a synthesized one, whose
// sessions cost the most to serve and to check in set-up.
func editScriptsPer(p *Program) int {
	if workloads.ByName(p.Name) != nil {
		return 6
	}
	return 1
}

// editScripts builds one cycle of edit sessions. Every session has
// the same shape, and the costly synthesized-program sessions are
// spaced evenly through the cycle, so any stretch of a run sees about
// the same mix whatever the seed.
func editScripts(seed int64) ([]*Script, error) {
	var heavy, light []*Program
	for _, p := range editPool(seed) {
		for k := 0; k < editScriptsPer(p); k++ {
			if workloads.ByName(p.Name) != nil {
				light = append(light, p)
			} else {
				heavy = append(heavy, p)
			}
		}
	}
	// The synthesized sessions keep their size order: which of them
	// the two clients play at the same time shapes a round's length.
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
	var progs []*Program
	gap := len(light) / len(heavy)
	for i, p := range heavy {
		progs = append(progs, p)
		progs = append(progs, light[i*gap:(i+1)*gap]...)
	}
	progs = append(progs, light[len(heavy)*gap:]...)
	scripts := make([]*Script, len(progs))
	err := parallel(len(progs), func(i int) error {
		r := rand.New(rand.NewSource(scriptSeed(seed, i)))
		if workloads.ByName(progs[i].Name) == nil {
			// A synthesized program's session picks its loops and
			// statements by the program's size, not the seed: one
			// such session is a large share of a cycle, and which
			// call it deletes moves its cost by a factor of three.
			r = rand.New(rand.NewSource(int64(progs[i].Lines)))
		}
		var err error
		for try := 0; try < 5; try++ {
			if scripts[i], err = genEditScript(r, progs[i]); err == nil {
				return nil
			}
		}
		return fmt.Errorf("edit session over %s: %v", progs[i].Name, err)
	})
	if err != nil {
		return nil, err
	}
	return scripts, nil
}

// planVariants is how many seeded variants of each suite program the
// plan workload draws: about as many searches as a run makes, so the
// analysis and plan caches mostly miss.
const planVariants = 60

// planScripts builds the plan workload's sessions over seeded variants
// of the suite programs, interleaved program by program.
func planScripts(seed int64) ([]*Script, error) {
	suite := workloads.All()
	scripts := make([]*Script, planVariants*len(suite))
	err := parallel(len(scripts), func(i int) error {
		r := rand.New(rand.NewSource(scriptSeed(seed, i)))
		p := suiteVariant(suite[i%len(suite)], r)
		var err error
		if scripts[i], err = genPlanScript(p); err != nil {
			return fmt.Errorf("plan over %s: %v", p.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scripts, nil
}

//go:embed golden/run-seed1.json
var goldenRun []byte

// runScripts builds the run stream; for the default seed the expected
// outputs are the committed golden ones.
func runScripts(seed int64) ([]*Script, error) {
	scripts, err := runReference(seed)
	if err != nil || seed != defaultSeed {
		return scripts, err
	}
	return scripts, applyGolden(scripts, goldenRun)
}

// runReference builds the run stream with the in-process
// interpreter's outputs as the expected ones.
func runReference(seed int64) ([]*Script, error) {
	pool, err := runPool(seed)
	if err != nil {
		return nil, err
	}
	scripts := make([]*Script, len(pool))
	if err := parallel(len(pool), func(i int) error {
		var err error
		scripts[i], err = genRunScript(pool[i])
		return err
	}); err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(scripts), func(i, j int) { scripts[i], scripts[j] = scripts[j], scripts[i] })
	return scripts, nil
}

// goldenOutputs maps program name and worker count to the committed
// output for the default seed.
type goldenOutputs map[string]map[string]string

// applyGolden makes the committed outputs the expected ones: where
// the in-process interpreter no longer reproduces them, every run of
// that program is then counted as failed.
func applyGolden(scripts []*Script, data []byte) error {
	var g goldenOutputs
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("golden outputs: %v", err)
	}
	for _, sc := range scripts {
		for i := range sc.Ops {
			op := &sc.Ops[i]
			if op.Verb != "run" {
				continue
			}
			want, ok := g[sc.Name][fmt.Sprint(op.Run.Workers)]
			if !ok {
				return fmt.Errorf("golden outputs: no %s at %d workers", sc.Name, op.Run.Workers)
			}
			op.Want.Output = want
		}
	}
	return nil
}

// goldenFrom extracts the golden outputs from freshly built scripts.
func goldenFrom(scripts []*Script) goldenOutputs {
	g := goldenOutputs{}
	for _, sc := range scripts {
		for _, op := range sc.Ops {
			if op.Verb == "run" && op.Run.Backend == "interp" {
				if g[sc.Name] == nil {
					g[sc.Name] = map[string]string{}
				}
				g[sc.Name][fmt.Sprint(op.Run.Workers)] = op.Want.Output
			}
		}
	}
	return g
}
