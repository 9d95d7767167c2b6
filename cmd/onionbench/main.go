// Command onionbench reproduces every table and figure of "Onion Curve: A
// Space Filling Curve with Near-Optimal Clustering" (Xu, Nguyen,
// Tirthapura, ICDE 2018).
//
// Usage:
//
//	onionbench -exp all            # everything, paper-scale parameters
//	onionbench -exp fig5a,fig5b    # selected experiments
//	onionbench -exp all -quick     # small universes, seconds not minutes
//
// Results go to stdout, deterministic given -seed (CI diffs the -quick
// run against expected_quick.txt); each experiment's elapsed time goes
// to stderr.
//
// Experiments: fig1 fig2 table1 table2 fig5a fig5b fig6a fig6b fig7a fig7b
// lemma5 thm1 lb seeks fanout ablation spread eta. Add -format csv for
// machine-readable output of the distribution figures, lemma5 and eta.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/onioncurve/onion/internal/experiments"
)

func main() {
	var (
		expList = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		quick   = flag.Bool("quick", false, "shrink universes and sample counts")
		seed    = flag.Int64("seed", 1, "workload RNG seed")
		format  = flag.String("format", "table", "output format: table or csv (distribution figures, lemma5, eta)")
	)
	flag.Parse()
	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	asCSV := *format == "csv"
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}

	type exp struct {
		id  string
		run func() (string, error)
	}
	all := []exp{
		{"fig1", func() (string, error) { return experiments.Fig1() }},
		{"fig2", func() (string, error) {
			rows, err := experiments.Fig2(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig2(rows), nil
		}},
		{"table1", func() (string, error) {
			out, _, err := experiments.Table1(cfg)
			return out, err
		}},
		{"table2", func() (string, error) { return experiments.Table2(), nil }},
		{"fig5a", distRunner(cfg, asCSV, "Figure 5a: 2D random squares", experiments.Fig5a)},
		{"fig5b", distRunner(cfg, asCSV, "Figure 5b: 3D random cubes", experiments.Fig5b)},
		{"fig6a", distRunner(cfg, asCSV, "Figure 6a: 2D fixed-ratio rectangles (Algorithm 1)", experiments.Fig6a)},
		{"fig6b", distRunner(cfg, asCSV, "Figure 6b: 3D fixed-ratio rectangles", experiments.Fig6b)},
		{"fig7a", distRunner(cfg, asCSV, "Figure 7a: 2D random-endpoint rectangles", experiments.Fig7a)},
		{"fig7b", distRunner(cfg, asCSV, "Figure 7b: 3D random-endpoint rectangles", experiments.Fig7b)},
		{"lemma5", func() (string, error) {
			rows, err := experiments.Lemma5(cfg)
			if err != nil {
				return "", err
			}
			if asCSV {
				return experiments.Lemma5CSV(rows), nil
			}
			return experiments.RenderLemma5(rows), nil
		}},
		{"thm1", func() (string, error) {
			rows, err := experiments.Thm1(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderThm1(rows), nil
		}},
		{"lb", func() (string, error) {
			rows, err := experiments.LowerBounds(cfg)
			if err != nil {
				return "", err
			}
			names := []string{"onion", "hilbert", "snake", "zcurve", "graycode", "rowmajor"}
			return experiments.RenderLowerBounds(rows, names), nil
		}},
		{"seeks", func() (string, error) {
			rows, err := experiments.Seeks(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderSeeks(rows), nil
		}},
		{"fanout", func() (string, error) {
			rows, err := experiments.Fanout(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderFanout(rows), nil
		}},
		{"ablation", func() (string, error) {
			rows, err := experiments.Ablation(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderAblation(rows), nil
		}},
		{"spread", func() (string, error) {
			rows, err := experiments.SpreadExp(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderSpread(rows), nil
		}},
		{"eta", func() (string, error) {
			rows, err := experiments.Eta(cfg)
			if err != nil {
				return "", err
			}
			if asCSV {
				return experiments.EtaCSV(rows), nil
			}
			return experiments.RenderEta(rows), nil
		}},
	}

	want := map[string]bool{}
	runAll := *expList == "all"
	for _, id := range strings.Split(*expList, ",") {
		want[strings.TrimSpace(id)] = true
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.id] = true
	}
	for id := range want {
		if id != "all" && id != "" && !known[id] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: fig1 fig2 table1 table2 fig5a fig5b fig6a fig6b fig7a fig7b lemma5 thm1 lb seeks fanout ablation spread eta\n", id)
			os.Exit(2)
		}
	}

	for _, e := range all {
		if !runAll && !want[e.id] {
			continue
		}
		start := time.Now()
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "=== %s (%.1fs) ===\n", e.id, time.Since(start).Seconds())
		fmt.Printf("=== %s ===\n%s\n", e.id, out)
	}
}

func distRunner(cfg experiments.Config, asCSV bool, title string, fn func(experiments.Config) ([]experiments.DistRow, error)) func() (string, error) {
	return func() (string, error) {
		rows, err := fn(cfg)
		if err != nil {
			return "", err
		}
		if asCSV {
			return experiments.DistRowsCSV(rows), nil
		}
		return experiments.RenderDistRows(title, rows), nil
	}
}
