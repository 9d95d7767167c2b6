package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all five workloads at toy size, untraced and traced, and
// validates what they print: the harness must keep building, keep passing
// its own oracle, and keep reporting every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		for i := range workloads {
			wl := &workloads[i]
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) {
				cfg := &config{
					seed: 3, seconds: 0.4, trace: trace, dir: t.TempDir(),
					points: 20_000, queries: 240, rounds: 2, setups: 1,
				}
				if trace {
					cfg.spans = filepath.Join(cfg.dir, "spans.tsv")
				}
				rep, err := runOne(cfg, wl)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, correct %v: %v", rep.Attempted, rep.Failed, rep.Correct, rep.Failures)
				}
				if rep.Rounds < cfg.rounds || len(rep.RoundOpPerS) != rep.Rounds || rep.Samples == 0 {
					t.Errorf("%d rounds, %d per-round rates, %d samples", rep.Rounds, len(rep.RoundOpPerS), rep.Samples)
				}
				checkMetrics(t, rep.EndToEnd, endToEnd, 16)
				for _, name := range []string{"setup_s", "op_per_s", "op_p50_us", "disk_bytes_per_user_byte"} {
					if rep.EndToEnd[name].Value <= 0 {
						t.Errorf("%s = %v, want a positive number", name, rep.EndToEnd[name].Value)
					}
				}
				if !trace {
					if rep.PerLayer != nil {
						t.Error("per-layer metrics from an untraced run")
					}
					return
				}
				checkMetrics(t, rep.PerLayer, perLayer, 128)
				if rep.PerLayer["ranges.clusters_per_op"].Value <= 0 {
					t.Error("ranges.clusters_per_op is not positive")
				}
				quorum := wl.name == "ingest-quorum"
				if got := rep.PerLayer["repl.entries_per_append"].Value; (got > 0) != quorum {
					t.Errorf("repl.entries_per_append = %v", got)
				}
				spans, err := os.ReadFile(cfg.spans)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(spans, []byte("\nop\t")) {
					t.Error("the span file holds no op span")
				}
			})
		}
	}
}

func checkMetrics(t *testing.T, got map[string]metric, defs []metricDef, limit int) {
	t.Helper()
	if len(got) != len(defs) || len(got) > limit {
		t.Errorf("%d metrics, %d defined, limit %d", len(got), len(defs), limit)
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", d.Name)
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q has characters outside letters, digits, _ . -", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestBenchmarkJSON pins the file at the root of the repository to the
// tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := describeBenchmark(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `bench -describe`; regenerate it with: go run -C bench . -describe > BENCHMARK.json")
	}
	for _, wl := range workloads {
		if !metricName.MatchString(wl.name) || len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %q: bad name, or a why that is not one line of at most 200 characters", wl.name)
		}
	}
}

// TestCompare checks the tool the "two sets agree" criterion is checked
// with: quartiles as Python's statistics.quantiles gives them, and a pair of
// medians out of bound when the worse is worse than the better by more than
// the bound, whichever file holds which.
func TestCompare(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0]: spread (31 - 3.5) / 13.5.
	if got, want := spread([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}), 27.5/13.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}

	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	contract, err := json.Marshal(benchmarkJSON{
		Workloads: []workloadJSON{{Name: "query-hot"}},
		EndToEnd: []metricDef{
			{Name: "op_per_s", Better: "higher", Bound: 0.10},
			{Name: "op_p50_us", Better: "lower", Bound: 0.10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bounds, contract, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, opPerS, p50 float64) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < 3; i++ {
			rep := report{Workload: "query-hot", EndToEnd: map[string]metric{
				"op_per_s":  {opPerS + float64(i), "1/s"},
				"op_p50_us": {p50, "us"},
			}}
			if err := enc.Encode(rep); err != nil {
				t.Fatal(err)
			}
			// A result line between the reports must be skipped.
			if err := enc.Encode(outcome{Correct: true, Attempted: 1}); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 50)
	for _, tc := range []struct {
		name        string
		opPerS, p50 float64
		ok          bool
	}{
		{"same", 1000, 50, true},
		{"throughput within bound", 920, 50, true},
		{"throughput out of bound", 880, 50, false},
		{"throughput out of bound the other way", 1120, 50, false},
		{"latency within bound", 1000, 46, true},
		{"latency out of bound", 1000, 56, false},
		{"latency out of bound the other way", 1000, 45, false},
	} {
		other := write("b.json", tc.opPerS, tc.p50)
		for _, files := range [][2]string{{base, other}, {other, base}} {
			var out bytes.Buffer
			ok, err := compareFiles(&out, files[0], files[1], bounds)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok {
				t.Errorf("%s: in bound = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
			}
		}
	}
}
