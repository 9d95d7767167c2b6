// Command bench is the repository's benchmark: five named workloads on the
// sharded spatial store, four end-to-end metrics each, and a traced mode
// that attributes the time to the layers underneath. README.md has the
// definitions; BENCHMARK.json at the root of the repository is the contract
// the numbers are gated by.
//
//	go run -C bench . -workload query-cold -seed 7
//	go run -C bench . -workload mixed -seed 7 -trace 1 -spans /tmp/spans.tsv
//	go run -C bench . -compare a.json b.json
//
// Every run prints one JSON report per workload, and as its last line the
// result object of the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	spans    string

	// The sizes of a run. They are not flags, because numbers taken at other
	// sizes are not the metrics BENCHMARK.json names; the smoke test shrinks
	// them here.
	points  int // in the preloaded data set D
	queries int // rectangles in the query list Q
	rounds  int // timed rounds: read workloads run at least this many, write workloads exactly this many
	setups  int // times the set-up is repeated; setup_s is their median
}

func defaultConfig() *config {
	return &config{points: 500_000, queries: 2400, rounds: 8, setups: 3}
}

// nproc is the GOMAXPROCS every run is pinned to, so that the store has the
// same two processors to share on every box. At most two goroutines
// generate load.
const nproc = 2

// report is the diagnostic line of one workload: everything needed to tell
// a noisy run from a slow one out of its own output.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Nproc       int               `json:"nproc"`
	Gomaxprocs  int               `json:"gomaxprocs"`
	Go          string            `json:"go"`
	Points      int               `json:"points"`
	Queries     int               `json:"queries"`
	Seconds     float64           `json:"seconds"`
	Rounds      int               `json:"rounds"`
	RoundOpPerS []float64         `json:"round_op_per_s"`
	SetupS      []float64         `json:"setup_s"`
	StealFrac   float64           `json:"steal_frac"`
	RawOpPerS   float64           `json:"op_per_s_raw"`  // median over the rounds
	RawOpP50us  float64           `json:"op_p50_us_raw"` // median over every timed op
	Samples     int               `json:"samples"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Correct     bool              `json:"correct"`
	Failures    []string          `json:"failures,omitempty"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
}

// outcome is the last line of standard output, as the contract defines it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := defaultConfig()
	var trace int
	var compare, describe bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: query-hot, query-cold, ingest-durable, ingest-quorum, mixed, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of D, Q and the ingest point streams, and of nothing else")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long the timed rounds of a run take; the traced mode spends half on each of its two runs")
	flag.IntVar(&trace, "trace", 0, "1: run untraced and then traced, and print the per-layer metrics in the result line")
	flag.StringVar(&cfg.dir, "dir", "", "directory to build the stores in (default: a fresh one here, removed on exit)")
	flag.StringVar(&cfg.spans, "spans", "", "with -trace 1 and one workload: file the spans are written to")
	flag.BoolVar(&compare, "compare", false, "compare two files of reports against the bounds of BENCHMARK.json: bench -compare a.json b.json")
	flag.BoolVar(&describe, "describe", false, "print the BENCHMARK.json these workloads and metrics define")
	flag.Parse()
	cfg.trace = trace != 0

	switch {
	case describe:
		os.Stdout.Write(describeBenchmark()) //nolint:errcheck
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "")
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		runtime.GOMAXPROCS(nproc)
		out, err := runAll(cfg)
		if err != nil {
			fatal(err)
		}
		if !out.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs the workloads cfg names and prints their reports and the
// result line.
func runAll(cfg *config) (*outcome, error) {
	var todo []*workload
	if cfg.workload == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if wl := findWorkload(cfg.workload); wl != nil {
		todo = append(todo, wl)
	} else {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.dir == "" {
		dir, err := os.MkdirTemp(".", ".benchrun-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}

	out := &outcome{Correct: true, Metrics: map[string]metric{}}
	enc := json.NewEncoder(os.Stdout)
	for _, wl := range todo {
		rep, err := runOne(cfg, wl)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := enc.Encode(rep); err != nil {
			return nil, err
		}
		out.Correct = out.Correct && rep.Correct
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
		metrics := rep.EndToEnd
		if cfg.trace {
			metrics = rep.PerLayer
		}
		for name, m := range metrics {
			if len(todo) > 1 {
				name = wl.name + "." + name
			}
			out.Metrics[name] = m
		}
	}
	return out, enc.Encode(out)
}

// runOne runs one workload: untraced, and in traced mode a second time with
// the seams wrapped. The end-to-end metrics always come from the untraced
// run.
func runOne(cfg *config, wl *workload) (*report, error) {
	seconds, setups := cfg.seconds, cfg.setups
	if cfg.trace {
		seconds, setups = seconds/2, 1
	}
	u, err := runWorkload(cfg, wl, nil, setups, seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace,
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Points: cfg.points, Queries: cfg.queries, Seconds: cfg.seconds,
		Rounds: len(u.roundOpPerS), RoundOpPerS: u.roundOpPerS, SetupS: u.setups, Samples: len(u.lat),
		StealFrac: u.stealFrac, RawOpPerS: median(u.roundOpPerS), RawOpP50us: quantile(u.lat, 0.5) / 1e3,
		EndToEnd: named(endToEnd, endToEndMetrics(u)),
	}
	results := []*result{u}
	if cfg.trace {
		t, err := runWorkload(cfg, wl, newTracer(), 1, seconds)
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		if cfg.spans != "" {
			if err := dumpSpans(cfg.spans, t.spans); err != nil {
				return nil, err
			}
		}
		d := generate(cfg.seed, cfg.points, cfg.queries)
		l, err := runLadder(d)
		if err != nil {
			return nil, err
		}
		rep.PerLayer = named(perLayer, perLayerMetrics(wl, d, u, t, l))
		results = append(results, t)
	}
	for _, r := range results {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		rep.Failures = append(rep.Failures, r.failures...)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// named attaches the units, and checks that the values cover the
// definitions exactly.
func named(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("no value for metric " + d.Name)
		}
		out[d.Name] = metric{v, d.Unit}
	}
	if len(values) != len(defs) {
		panic("a metric has a value and no definition")
	}
	return out
}
