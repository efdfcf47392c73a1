// Command perfbench is the far-memory benchmark: it compiles a CaRDS
// workload (internal/core), executes it on the farmem runtime
// (internal/interp) against real cardsd child processes over TCP
// loopback, and reports wall-clock metrics, end to end (-trace 0) or
// layer by layer (-trace 1). Every execution's checksum is compared
// with an in-process oracle execution of the same compiled program.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"run_s": {"value": 1.23, "unit": "s"}, ...}}
//
// A human-readable table goes to standard error. The exit status is 1
// when any execution fails its checksum or a consistency check fails.
// See README.md for the workloads and every metric.
//
// Usage:
//
//	perfbench -cardsd path/to/cardsd -workload analytics -seed 1 -seconds 10 -trace 0 [-spans out.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/workloads"
)

// workload is one benchmark configuration: a generated program, its
// cache budget, and its far tier.
type workload struct {
	name   string
	build  func(seed int64) (*ir.Module, error)
	budget uint64 // remotable cache bytes
	tier   tierSpec
	// want names the far-tier operations the workload exists to
	// exercise; a run that does none of them is misconfigured.
	want opShape
}

// opShape records which far-tier mechanisms a run exercised.
type opShape struct {
	staged      bool // asynchronous (staged) write-backs
	chases      bool // traversal offload programs
	epochWrites bool // epoch-stamped replica writes
}

func (s opShape) String() string {
	return fmt.Sprintf("staged=%t chases=%t epoch_writes=%t", s.staged, s.chases, s.epochWrites)
}

// linkBandwidth is the shaped link of analytics-slowlink, in bytes/s.
const linkBandwidth = 24 << 20

func buildTaxi(seed int64) (*ir.Module, error) {
	return workloads.BuildTaxi(workloads.TaxiConfig{Trips: 512, HotPasses: 6, Seed: seed}).Module, nil
}

var workloadTable = []workload{
	{
		name: "analytics", build: buildTaxi, budget: 32 << 10,
		tier: tierSpec{backends: 1},
		want: opShape{staged: true},
	},
	{
		name: "pointerchase",
		build: func(seed int64) (*ir.Module, error) {
			w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: 1 << 17, Seed: seed})
			if err != nil {
				return nil, err
			}
			return w.Module, nil
		},
		budget: 32 << 10,
		tier:   tierSpec{backends: 1},
		want:   opShape{chases: true},
	},
	{
		name: "bfs-replicated",
		build: func(seed int64) (*ir.Module, error) {
			return workloads.BuildBFS(workloads.BFSConfig{Vertices: 1024, Degree: 8, Trials: 2, Seed: seed}).Module, nil
		},
		budget: 128 << 10,
		tier:   tierSpec{backends: 2, replicas: 2},
		want:   opShape{epochWrites: true},
	},
	{
		name: "analytics-slowlink", build: buildTaxi, budget: 32 << 10,
		tier: tierSpec{backends: 1, chaos: fmt.Sprintf("bw=%d", linkBandwidth)},
		want: opShape{staged: true},
	},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Benchmark shape.
const (
	setupReps  = 5 // set-ups per run; setup_s is their median
	minExecs   = 3 // fewest timed executions per phase
	oracleReps = 3
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems explain correct=false; printed, not part of the JSON.
	problems []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one run.
type options struct {
	cardsd  string
	seed    int64
	seconds float64
	spans   string
}

func main() {
	var (
		o     options
		wname string
		trace int
	)
	flag.StringVar(&o.cardsd, "cardsd", "", "path to the cardsd binary")
	flag.StringVar(&wname, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "workload input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "traced run: write the span file here (Chrome trace JSON)")
	flag.Parse()
	w, err := lookup(wname)
	if err != nil {
		fatal(err)
	}
	if o.cardsd == "" {
		fatal(errors.New("-cardsd is required"))
	}
	var r *report
	if trace == 0 {
		r, err = runUntraced(w, o)
	} else {
		r, err = runTraced(w, o)
	}
	if err != nil {
		fatal(err)
	}
	printTable(os.Stderr, w.name, r)
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// setup compiles a freshly generated program and starts its far tier,
// setupReps times, and returns the median wall time of one set-up
// (compile + fleet start until serving + dial and ping; generation
// excluded), the median compile time, and the last compiled program and
// tier, which stay up. rec, when non-nil, traces the last set-up.
func setup(w workload, o options, reps int, rec *recorder) (setupS, compileS float64, c *core.Compiled, t *tier, err error) {
	var setups, compiles []float64
	for i := 0; i < reps; i++ {
		m, err := w.build(o.seed)
		if err != nil {
			return 0, 0, nil, nil, fmt.Errorf("generating %s: %w", w.name, err)
		}
		var r *recorder
		if i == reps-1 {
			r = rec
		}
		done := r.region("setup")
		start := time.Now()
		endCompile := r.region("compile")
		c, err = core.Compile(m, core.CompileOptions{})
		endCompile()
		compiles = append(compiles, time.Since(start).Seconds())
		if err != nil {
			done()
			return 0, 0, nil, nil, fmt.Errorf("compiling %s: %w", w.name, err)
		}
		t, err = startTier(o.cardsd, w.tier, r)
		setups = append(setups, time.Since(start).Seconds())
		done()
		if err != nil {
			return 0, 0, nil, nil, fmt.Errorf("starting far tier: %w", err)
		}
		if i < reps-1 {
			t.close()
		}
	}
	return median(setups), median(compiles), c, t, nil
}

// oracle executes the compiled program in-process (farmem.MapStore as
// the far tier) reps times; it returns the checksum and the median
// wall time.
func oracle(c *core.Compiled, budget uint64, reps int) (uint64, float64, error) {
	var times []float64
	var sum uint64
	for i := 0; i < reps; i++ {
		r := execute(c, farmem.NewMapStore(), budget)
		if r.err != nil {
			return 0, 0, fmt.Errorf("oracle run: %w", r.err)
		}
		if i > 0 && r.checksum != sum {
			return 0, 0, fmt.Errorf("oracle runs disagree: %#x vs %#x", r.checksum, sum)
		}
		sum = r.checksum
		times = append(times, r.runS)
	}
	return sum, median(times), nil
}

// shapeOf reads which mechanisms a phase exercised, from the runtime's
// counters and the fleet's exposition delta over the phase.
func shapeOf(execs []execResult, fleet exposition) opShape {
	var s opShape
	for i := range execs {
		s.staged = s.staged || execs[i].stats.StagedWriteBacks > 0
		s.chases = s.chases || execs[i].stats.ChasesIssued > 0
	}
	for k, v := range fleet {
		if strings.HasPrefix(k, `cards_wire_bytes_total{verb="WRITEEPOCHBATCH`) && v > 0 {
			s.epochWrites = true
		}
	}
	return s
}

// checkShape fails the report when a phase missed one of the
// workload's mechanisms.
func checkShape(r *report, w workload, phase string, got opShape) {
	if (w.want.staged && !got.staged) || (w.want.chases && !got.chases) || (w.want.epochWrites && !got.epochWrites) {
		r.fail("%s phase did not exercise the workload's mechanisms: want %v, got %v", phase, w.want, got)
	}
}

// timedRunS returns the run times of the timed executions (the warm-up
// excluded).
func timedRunS(execs []execResult) []float64 {
	var out []float64
	for _, e := range execs[1:] {
		out = append(out, e.runS)
	}
	return out
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, o options) (*report, error) {
	setupS, _, c, t, err := setup(w, o, setupReps, nil)
	if err != nil {
		return nil, err
	}
	defer t.close()
	base, err := t.scrapeAll()
	if err != nil {
		return nil, err
	}
	execs := runFor(c, t.store, w.budget, timedFor(o.seconds, minExecs), nil)
	logRunS(w.name, execs)
	self, err := readProc("self")
	if err != nil {
		return nil, err
	}
	after, err := t.scrapeAll()
	if err != nil {
		return nil, err
	}
	sum, _, err := oracle(c, w.budget, 1)
	if err != nil {
		return nil, err
	}

	return untracedReport(w, execs, sum, setupS, float64(self.hwmKiB)/1024, shapeOf(execs, after.sub(base))), nil
}

// untracedReport judges the executions of an untraced run (the warm-up
// first) against the oracle checksum and sets the end-to-end metrics.
func untracedReport(w workload, execs []execResult, sum uint64, setupS, rssMiB float64, shape opShape) *report {
	r := &report{Correct: true}
	timed := execs[1:]
	acc := account(timed, sum)
	if warm := account(execs[:1], sum); warm.mismatches > 0 {
		r.fail("warm-up execution: %v", warm.firstErr)
	}
	if acc.mismatches > 0 {
		r.fail("%d of %d executions failed: %v", acc.mismatches, len(timed), acc.firstErr)
	}
	checkShape(r, w, "untraced", shape)
	r.Attempted, r.Failed = acc.attempted, acc.failed
	r.set("setup_s", setupS, "s")
	r.set("run_s", median(timedRunS(execs)), "s")
	r.set("client_rss_mib", rssMiB, "MiB")
	r.set("ok_frac", 1-acc.failedFrac(), "fraction")
	return r
}

// logRunS prints every execution's run time (the warm-up first) to
// standard error.
func logRunS(name string, execs []execResult) {
	var b strings.Builder
	for _, e := range execs {
		fmt.Fprintf(&b, " %.4f", e.runS)
	}
	fmt.Fprintf(os.Stderr, "perfbench %s: run_s per execution:%s\n", name, b.String())
}

// printTable writes the report in human-readable form.
func printTable(f *os.File, name string, r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "perfbench %s: correct=%t attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.problems {
		fmt.Fprintf(f, "  FAIL %s\n", p)
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
