package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/cluster"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/partition"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/stats"
	"github.com/onioncurve/onion/internal/workload"
)

// allCurves2D builds the full comparison set used by application-level
// experiments (power-of-two side required).
func allCurves2D(side uint32) ([]curve.Curve, error) {
	o, err := core.NewOnion2D(side)
	if err != nil {
		return nil, err
	}
	h, err := baseline.NewHilbert(2, side)
	if err != nil {
		return nil, err
	}
	z, err := baseline.NewMorton(2, side)
	if err != nil {
		return nil, err
	}
	g, err := baseline.NewGray(2, side)
	if err != nil {
		return nil, err
	}
	s, err := baseline.NewSnake(2, side)
	if err != nil {
		return nil, err
	}
	r, err := baseline.NewRowMajor(2, side)
	if err != nil {
		return nil, err
	}
	return []curve.Curve{o, h, z, g, s, r}, nil
}

// SeeksRow summarizes the clustered-store experiment per curve.
type SeeksRow struct {
	Curve          string
	AvgRanges      float64 // clusters: ranges of the exact plan
	AvgSeeks       float64 // measured by Store.Query
	AvgPages       float64 // measured by Store.Query
	AvgBudgetSeeks float64 // measured on the plan merged to seekBudget ranges
	AvgFalsePos    float64 // records the merged plan scanned outside the query
}

// seekBudget is the range budget of the merged (ε-relaxed) plan.
const seekBudget = 8

// storePageBytes is the page size of the experiment's stores: the storage
// engine's default.
const storePageBytes = 4096

// seeksProbe is one query answered under both plans: exactly through
// Store.Query, and over the plan merged to seekBudget ranges through one
// cursor whose records are filtered by containment.
type seeksProbe struct {
	ranges        int
	exact, budget []pagedstore.Record
	st, bst       pagedstore.Stats
}

// Seeks runs the application experiment behind the paper's motivation: a
// table clustered in curve order, where the clustering number bounds the
// disk seeks of a rectangle query. Per curve it writes the same synthetic
// clustered points to a store file of 4096-byte pages in a temporary
// directory (removed on return), runs random rectangle queries, and reports
// the seeks and pages each query measurably read — once under the exact
// plan and once under an 8-range merged plan that trades seeks for records
// scanned outside the query.
func Seeks(cfg Config) ([]SeeksRow, error) { return seeks(cfg, nil) }

// seeks is Seeks with a hook that sees every probe (nil for none).
func seeks(cfg Config, visit func(curve string, p *seeksProbe)) ([]SeeksRow, error) {
	cfg = cfg.withDefaults()
	side := uint32(256)
	points := 20000
	queries := 40
	if cfg.Quick {
		side = 64
		points = 2000
		queries = 15
	}
	u := geom.MustUniverse(2, side)
	pts, err := workload.ClusteredPoints(u, 6, points, cfg.Seed+400)
	if err != nil {
		return nil, err
	}
	qs, err := workload.RandomCorners(u, queries, cfg.Seed+401)
	if err != nil {
		return nil, err
	}
	cs, err := allCurves2D(side)
	if err != nil {
		return nil, err
	}
	cs = cs[:3] // onion, hilbert, z — the headline comparison
	recs := make([]pagedstore.Record, len(pts))
	for i, p := range pts {
		recs[i] = pagedstore.Record{Point: p, Payload: uint64(i)}
	}
	dir, err := os.MkdirTemp("", "onion-seeks")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rows := make([]SeeksRow, 0, len(cs))
	for _, c := range cs {
		path := filepath.Join(dir, c.Name()+".pst")
		if err := pagedstore.Write(path, c, recs, storePageBytes); err != nil {
			return nil, err
		}
		row, err := seeksRow(path, c, qs, visit)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// seeksRow opens the store at path and averages both plans over qs.
func seeksRow(path string, c curve.Curve, qs []geom.Rect, visit func(string, *seeksProbe)) (SeeksRow, error) {
	s, err := pagedstore.Open(path, c)
	if err != nil {
		return SeeksRow{}, err
	}
	defer s.Close()
	row := SeeksRow{Curve: c.Name()}
	for _, q := range qs {
		p, err := probeSeeks(s, c, q)
		if err != nil {
			return SeeksRow{}, err
		}
		if visit != nil {
			visit(row.Curve, &p)
		}
		row.AvgRanges += float64(p.ranges)
		row.AvgSeeks += float64(p.st.Seeks)
		row.AvgPages += float64(p.st.PagesRead)
		row.AvgBudgetSeeks += float64(p.bst.Seeks)
		row.AvgFalsePos += float64(p.bst.RecordsScanned - len(p.budget))
	}
	n := float64(len(qs))
	row.AvgRanges /= n
	row.AvgSeeks /= n
	row.AvgPages /= n
	row.AvgBudgetSeeks /= n
	row.AvgFalsePos /= n
	return row, nil
}

// probeSeeks answers q on s under the exact and the merged plan.
func probeSeeks(s *pagedstore.Store, c curve.Curve, q geom.Rect) (seeksProbe, error) {
	var p seeksProbe
	rs, err := ranges.Decompose(c, q, 0)
	if err != nil {
		return p, err
	}
	p.ranges = len(rs)
	if p.exact, p.st, err = s.Query(q); err != nil {
		return p, err
	}
	m, err := ranges.MergeToBudget(rs, seekBudget)
	if err != nil {
		return p, err
	}
	cur := s.AcquireCursor()
	defer cur.Release()
	var e pagedstore.Entry
	pt := make(geom.Point, c.Universe().Dims())
	cur.Plan(m.Ranges)
	for cur.NextRange() {
		for {
			ok, err := cur.NextInto(&e)
			if err != nil {
				return p, err
			}
			if !ok {
				break
			}
			// The budget plan's ranges reach past q: keep what lies in it.
			if pt = c.Coords(e.Key, pt); q.Contains(pt) {
				p.budget = append(p.budget, pagedstore.Record{Point: pt.Clone(), Payload: e.Payload})
			}
		}
	}
	p.bst = cur.Stats()
	return p, nil
}

// RenderSeeks renders the clustered-store experiment.
func RenderSeeks(rows []SeeksRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Curve,
			fmt.Sprintf("%.1f", r.AvgRanges),
			fmt.Sprintf("%.1f", r.AvgSeeks),
			fmt.Sprintf("%.1f", r.AvgPages),
			fmt.Sprintf("%.1f", r.AvgBudgetSeeks),
			fmt.Sprintf("%.1f", r.AvgFalsePos),
		})
	}
	return fmt.Sprintf("Clustered-store experiment: avg per query (random rectangles, clustered points, %d-byte pages)\n", storePageBytes) +
		stats.FormatTable([]string{"curve", "ranges", "seeks", "pages", fmt.Sprintf("seeks (budget %d)", seekBudget), "false pos"}, out)
}

// FanoutRow summarizes partition fan-out per curve.
type FanoutRow struct {
	Curve     string
	Shards    int
	AvgFanout float64
	MaxLoad   int // of a balanced-by-weight partitioning of the sample
}

// Fanout measures how many shards a rectangle query touches when the key
// space is range-partitioned — the distributed-partitioning motivation of
// the paper's introduction.
func Fanout(cfg Config) ([]FanoutRow, error) {
	cfg = cfg.withDefaults()
	side := uint32(256)
	queries := 40
	shards := 16
	if cfg.Quick {
		side = 64
		queries = 15
	}
	u := geom.MustUniverse(2, side)
	qs, err := workload.RandomTranslates(u, []uint32{side / 4, side / 4}, queries, cfg.Seed+500)
	if err != nil {
		return nil, err
	}
	pts, err := workload.ClusteredPoints(u, 5, 5000, cfg.Seed+501)
	if err != nil {
		return nil, err
	}
	cs, err := allCurves2D(side)
	if err != nil {
		return nil, err
	}
	cs = cs[:3]
	var rows []FanoutRow
	for _, c := range cs {
		keys := make([]uint64, len(pts))
		for i, p := range pts {
			keys[i] = c.Index(p)
		}
		part, err := partition.ByWeight(c, keys, shards)
		if err != nil {
			return nil, err
		}
		row := FanoutRow{Curve: c.Name(), Shards: shards}
		for _, q := range qs {
			fo, err := part.FanOut(q)
			if err != nil {
				return nil, err
			}
			row.AvgFanout += float64(fo)
		}
		row.AvgFanout /= float64(len(qs))
		for _, l := range part.Loads(keys) {
			if l > row.MaxLoad {
				row.MaxLoad = l
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFanout renders the partition experiment.
func RenderFanout(rows []FanoutRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Curve, fmt.Sprint(r.Shards),
			fmt.Sprintf("%.2f", r.AvgFanout), fmt.Sprint(r.MaxLoad),
		})
	}
	return "Partition fan-out: shards touched per quarter-size square query (weight-balanced shards)\n" +
		stats.FormatTable([]string{"curve", "shards", "avg fan-out", "max shard load"}, out)
}

// AblationRow compares the onion family's within-layer orders.
type AblationRow struct {
	L     uint32
	Curve string
	Mean  float64
}

// Ablation separates two different claims about the onion curve's
// within-layer structure. The paper proves the *segment permutation* is
// immaterial (Section VI-A): a 3D onion curve visiting S1..S10 in an
// arbitrary order clusters identically to the paper's order — rows
// "onion" vs "onion-perm" confirm this. In contrast, degrading the order
// *inside* segments (OnionND's per-slice tube rings, LayerLex's
// lexicographic shells) destroys the constant: both remain layer-
// sequential yet cluster orders of magnitude worse on large cubes, which
// shows the segments' internal 2D-onion structure is load-bearing.
func Ablation(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	side := uint32(32)
	samples := 30
	if cfg.Quick {
		side = 16
		samples = 10
	}
	o3, err := core.NewOnion3D(side)
	if err != nil {
		return nil, err
	}
	o3p, err := core.NewOnion3DWithSegmentOrder(side, [10]int{9, 1, 3, 4, 5, 2, 6, 7, 8, 10})
	if err != nil {
		return nil, err
	}
	o3p.Id = "onion-perm"
	nd, err := core.NewOnionND(3, side)
	if err != nil {
		return nil, err
	}
	ll, err := core.NewLayerLex(3, side)
	if err != nil {
		return nil, err
	}
	h3, err := baseline.NewHilbert(3, side)
	if err != nil {
		return nil, err
	}
	cs := []curve.Curve{o3, o3p, nd, ll, h3}
	u := geom.MustUniverse(3, side)
	var rows []AblationRow
	for i, frac := range []uint32{8, 4, 2} {
		l := side - side/frac
		qs, err := workload.RandomTranslates(u, []uint32{l, l, l}, samples, cfg.Seed+600+int64(i))
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			var sum float64
			for _, q := range qs {
				n, err := cluster.CountSorted(c, q, 0)
				if err != nil {
					return nil, err
				}
				sum += float64(n)
			}
			rows = append(rows, AblationRow{L: l, Curve: c.Name(), Mean: sum / float64(len(qs))})
		}
	}
	return rows, nil
}

// RenderAblation renders the ablation table.
func RenderAblation(rows []AblationRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{fmt.Sprint(r.L), r.Curve, fmt.Sprintf("%.2f", r.Mean)})
	}
	return "Ablation: within-layer order (onion vs onionnd vs layerlex) vs hilbert, 3D cubes\n" +
		stats.FormatTable([]string{"l", "curve", "mean clusters"}, out)
}
