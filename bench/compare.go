package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkJSON is BENCHMARK.json: what -describe prints and -compare reads
// the bounds from.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 12

// describeBenchmark renders the tables of this package as BENCHMARK.json,
// so that the file at the root cannot drift from the names the code prints.
func describeBenchmark() []byte {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, wl := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{wl.name, wl.why})
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(out, '\n')
}

// readReports collects, per workload and end-to-end metric, the values of
// every report line in a file of bench output. Result lines and anything
// else that is not a report are skipped.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rep report
		if json.Unmarshal(sc.Bytes(), &rep) != nil || rep.Workload == "" {
			continue
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = make(map[string][]float64)
		}
		for name, m := range rep.EndToEnd {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(v, n=4)
// gives them — the measure the benchmark contract accepts a metric by.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	quartile := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return per(quartile(3)-quartile(1), median(s))
}

// loadBounds reads the contract the bounds come from: path, or with an empty
// path the BENCHMARK.json here or one directory up, which is where it is
// from the root of the repository and from bench/.
func loadBounds(path string) (*benchmarkJSON, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	for _, p := range candidates {
		raw, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) && path == "" {
			continue
		}
		if err != nil {
			return nil, err
		}
		var b benchmarkJSON
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &b, nil
	}
	return nil, errors.New("no BENCHMARK.json here or one directory up")
}

// compareFiles prints, for every workload and end-to-end metric that both
// files hold, the two medians, the two spreads, by how much the worse median
// is worse than the better one, and the bound. It reports false if any pair
// differs by more than its bound. The difference is taken from the better
// median whichever file holds it, so the verdict does not depend on the
// order the files are named in. A pair within the bound whose runs spread
// by more than the bound is marked unresolved: the sets agree, but they
// could not have shown a difference of that size.
func compareFiles(w io.Writer, pathA, pathB, boundsPath string) (bool, error) {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return false, err
	}
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	ok, rows := true, 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\tmedian a\tspread a\tmedian b\tspread b\tdiffer by\tbound\t")
	for _, wl := range bounds.Workloads {
		for _, def := range bounds.EndToEnd {
			va, vb := a[wl.Name][def.Name], b[wl.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows++
			ma, mb := median(va), median(vb)
			better := min(ma, mb)
			if def.Better == "higher" {
				better = max(ma, mb)
			}
			differ := per(math.Abs(ma-mb), better)
			verdict := ""
			switch {
			case differ > def.Bound:
				ok, verdict = false, "  OUT OF BOUND"
			case max(spread(va), spread(vb)) > def.Bound:
				verdict = "  unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d+%d\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, def.Name, len(va), len(vb), ma, 100*spread(va), mb, 100*spread(vb), 100*differ, 100*def.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if rows == 0 {
		return false, errors.New("the two files share no workload")
	}
	return ok, nil
}
