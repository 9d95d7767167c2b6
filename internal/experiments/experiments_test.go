package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/onioncurve/onion/internal/pagedstore"
)

var quickCfg = Config{Quick: true, Seed: 42, Side2D: 64, Side3D: 16, Samples2D: 12, Samples3D: 6}

func TestFig1(t *testing.T) {
	out, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hilbert: clustering number 2") {
		t.Errorf("Fig1 output missing hilbert count:\n%s", out)
	}
	if !strings.Contains(out, "zcurve: clustering number 4") {
		t.Errorf("Fig1 output missing z count:\n%s", out)
	}
}

func TestFig2(t *testing.T) {
	rows, err := Fig2(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// For the near-full query (l = side-1) the onion curve must beat
	// Hilbert decisively at every side.
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Curve+string(rune(r.Side))+string(rune(r.L))] = r.Average
	}
	for _, r := range rows {
		if r.Curve != "onion" || r.L < r.Side-1 {
			continue
		}
		h := byKey["hilbert"+string(rune(r.Side))+string(rune(r.L))]
		if h <= r.Average {
			t.Errorf("side %d l %d: hilbert %.2f should exceed onion %.2f", r.Side, r.L, h, r.Average)
		}
	}
	out := RenderFig2(rows)
	if !strings.Contains(out, "7x7 query") {
		t.Error("render missing picture")
	}
}

func TestFig5a(t *testing.T) {
	rows, err := Fig5a(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Paper: "for each side length considered, the onion curve performed
	// at least as well as the Hilbert curve" (on means, within noise).
	onion := map[string]float64{}
	for _, r := range rows {
		if r.Curve == "onion" {
			onion[r.Group] = r.Summary.Mean
		}
	}
	for _, r := range rows {
		if r.Curve == "hilbert" {
			if o := onion[r.Group]; o > r.Summary.Mean*1.1+1 {
				t.Errorf("group %s: onion mean %.2f worse than hilbert %.2f", r.Group, o, r.Summary.Mean)
			}
		}
	}
	out := RenderDistRows("fig5a", rows)
	if !strings.Contains(out, "median") {
		t.Error("render missing header")
	}
}

func TestFig5b(t *testing.T) {
	rows, err := Fig5b(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Summary.Count == 0 || r.Summary.Min < 1 {
			t.Errorf("row %+v implausible", r)
		}
	}
}

func TestFig6(t *testing.T) {
	rows, err := Fig6a(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no 2D rows")
	}
	rows3, err := Fig6b(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows3) == 0 {
		t.Fatal("no 3D rows")
	}
}

func TestFig7(t *testing.T) {
	rows, err := Fig7a(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // onion + hilbert
		t.Fatalf("fig7a rows = %d", len(rows))
	}
	rows3, err := Fig7b(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows3) != 2 {
		t.Fatalf("fig7b rows = %d", len(rows3))
	}
}

func TestTable1(t *testing.T) {
	out, rows, err := Table1(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2.32") || !strings.Contains(out, "3.39") {
		t.Errorf("Table 1 missing analytic maxima:\n%s", out)
	}
	// Hilbert's near-full-cube average must grow with the side; onion's
	// must stay bounded.
	var prevH, prevO float64
	for _, r := range rows {
		if r.Dims != 2 {
			continue
		}
		if prevH > 0 && r.HilbertAvg < prevH*1.5 {
			t.Errorf("hilbert 2D not growing: %.2f after %.2f", r.HilbertAvg, prevH)
		}
		if prevO > 0 && r.OnionAvg > prevO*1.5+1 {
			t.Errorf("onion 2D growing: %.2f after %.2f", r.OnionAvg, prevO)
		}
		prevH, prevO = r.HilbertAvg, r.OnionAvg
	}
}

func TestTable2(t *testing.T) {
	out := Table2()
	if !strings.Contains(out, "mu = 0") || !strings.Contains(out, "Omega") {
		t.Errorf("Table 2 output:\n%s", out)
	}
}

func TestLemma5(t *testing.T) {
	rows, err := Lemma5(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2D Hilbert growth rate should approach 2x per side doubling.
	var last2 float64
	for _, r := range rows {
		if r.Dims == 2 && r.HilbertRate > 0 {
			last2 = r.HilbertRate
		}
	}
	if last2 < 1.6 || last2 > 2.6 {
		t.Errorf("2D hilbert growth rate %.2f not near 2x", last2)
	}
	out := RenderLemma5(rows)
	if !strings.Contains(out, "hilbert growth") {
		t.Error("render")
	}
}

func TestThm1(t *testing.T) {
	rows, err := Thm1(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		dev := r.Measured - r.Predicted
		if dev < 0 {
			dev = -dev
		}
		if dev > r.Eps {
			t.Errorf("query %dx%d: deviation %.3f exceeds eps %.0f", r.L1, r.L2, dev, r.Eps)
		}
	}
	if !strings.Contains(RenderThm1(rows), "deviation") {
		t.Error("render")
	}
}

func TestLowerBounds(t *testing.T) {
	rows, err := LowerBounds(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"onion", "hilbert", "zcurve", "graycode", "snake", "rowmajor"}
	for _, r := range rows {
		for name, v := range r.Measured {
			if v < r.LBGeneral-1e-9 {
				t.Errorf("shape %s: %s measured %.3f below general LB %.3f", r.Shape, name, v, r.LBGeneral)
			}
		}
		for _, cont := range []string{"onion", "hilbert", "snake"} {
			if v := r.Measured[cont]; v < r.LBContinuous-1e-9 {
				t.Errorf("shape %s: %s measured %.3f below continuous LB %.3f", r.Shape, cont, v, r.LBContinuous)
			}
		}
	}
	if !strings.Contains(RenderLowerBounds(rows, names), "LB-cont") {
		t.Error("render")
	}
}

// TestSeeks runs the clustered-store experiment at `onionbench -exp seeks
// -quick` scale. The ranges and false-positive columns are properties of
// curve plus data, not of storage, so they are pinned as literals.
func TestSeeks(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	rows, err := seeks(Config{Quick: true, Seed: 1}, func(name string, p *seeksProbe) {
		if !slices.EqualFunc(p.budget, p.exact, func(a, b pagedstore.Record) bool {
			return a.Payload == b.Payload && slices.Equal(a.Point, b.Point)
		}) {
			t.Errorf("%s: merged plan returned %d records, Store.Query %d", name, len(p.budget), len(p.exact))
		}
		if p.bst.Seeks > p.st.Seeks || p.st.Seeks > p.ranges {
			t.Errorf("%s: want budget seeks %d <= seeks %d <= ranges %d", name, p.bst.Seeks, p.st.Seeks, p.ranges)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ curve, ranges, falsePos string }{
		{"onion", "18.0", "371.7"},
		{"hilbert", "25.6", "43.4"},
		{"zcurve", "48.3", "114.5"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, w := range want {
		r := rows[i]
		got := [3]string{r.Curve, fmt.Sprintf("%.1f", r.AvgRanges), fmt.Sprintf("%.1f", r.AvgFalsePos)}
		if got != [3]string{w.curve, w.ranges, w.falsePos} {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("temp dir holds %v after the call (%v)", left, err)
	}
	if !strings.Contains(RenderSeeks(rows), "seeks (budget 8)") {
		t.Error("render")
	}
}

func TestFanout(t *testing.T) {
	rows, err := Fanout(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AvgFanout < 1 || r.AvgFanout > float64(r.Shards) {
			t.Errorf("%s: fan-out %.2f out of range", r.Curve, r.AvgFanout)
		}
	}
	if !strings.Contains(RenderFanout(rows), "fan-out") {
		t.Error("render")
	}
}

func TestAblation(t *testing.T) {
	rows, err := Ablation(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxL uint32
	for _, r := range rows {
		if r.L > maxL {
			maxL = r.L
		}
	}
	vals := map[string]float64{}
	for _, r := range rows {
		if r.L == maxL {
			vals[r.Curve] = r.Mean
		}
	}
	// Paper's proven claim: permuting S1..S10 is immaterial.
	if vals["onion-perm"] > vals["onion"]*1.5+2 || vals["onion"] > vals["onion-perm"]*1.5+2 {
		t.Errorf("segment permutation changed clustering: %.2f vs %.2f",
			vals["onion"], vals["onion-perm"])
	}
	// Both paper variants must beat Hilbert decisively on the largest cubes.
	for _, fam := range []string{"onion", "onion-perm"} {
		if vals[fam] >= vals["hilbert"] {
			t.Errorf("%s mean %.2f not better than hilbert %.2f at l=%d",
				fam, vals[fam], vals["hilbert"], maxL)
		}
	}
	// The degraded within-segment orders stay layer-sequential but lose
	// the constant: they must be clearly worse than the paper's curve.
	for _, fam := range []string{"onionnd", "layerlex"} {
		if vals[fam] <= vals["onion"] {
			t.Errorf("%s mean %.2f unexpectedly as good as the paper's onion %.2f",
				fam, vals[fam], vals["onion"])
		}
	}
	if !strings.Contains(RenderAblation(rows), "layer") {
		t.Error("render")
	}
}

func TestCountAutoAgreesAcrossStrategies(t *testing.T) {
	// Smoke check that CountAuto picks working strategies for each family.
	cfg := quickCfg
	rows, err := Fig5b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Side2D != 1024 || c.Side3D != 512 || c.Samples2D != 1000 || c.Samples3D != 500 {
		t.Fatalf("full defaults = %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Side2D != 256 || q.Side3D != 64 {
		t.Fatalf("quick defaults = %+v", q)
	}
}

func TestCSVRenderers(t *testing.T) {
	rows, err := Fig7a(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	out := DistRowsCSV(rows)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(rows)+1)
	}
	if !strings.HasPrefix(lines[0], "group,curve,n,min") {
		t.Fatalf("csv header = %q", lines[0])
	}
	l5, err := Lemma5(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Lemma5CSV(l5), "hilbert_growth") {
		t.Error("lemma5 csv header")
	}
	eta, err := Eta(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(EtaCSV(eta), "paper_bound") {
		t.Error("eta csv header")
	}
}
