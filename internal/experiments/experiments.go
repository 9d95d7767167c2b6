// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VII) plus the analytical tables (I and II), the
// Hilbert growth demonstration of Lemma 5, validation sweeps for Theorems
// 1-6, and the database-level experiments (seeks and pages read from
// clustered store files, partition fan-out) that ground the paper's
// motivation. Each experiment returns structured rows plus a rendered
// table; cmd/onionbench drives them.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/cluster"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/stats"
)

// Config scales the experiments. The zero value runs the paper's full
// parameters; Quick shrinks universes and sample counts so the whole suite
// finishes in seconds (used by tests and -quick).
type Config struct {
	Quick     bool
	Seed      int64
	Side2D    uint32 // 2D universe side (paper: 2^10)
	Side3D    uint32 // 3D universe side (paper: 2^9)
	Samples2D int    // random queries per group in 2D (paper: 1000)
	Samples3D int    // random queries per group in 3D (paper: 500)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Side2D == 0 {
		if c.Quick {
			c.Side2D = 256
		} else {
			c.Side2D = 1 << 10
		}
	}
	if c.Side3D == 0 {
		if c.Quick {
			c.Side3D = 64
		} else {
			c.Side3D = 1 << 9
		}
	}
	if c.Samples2D == 0 {
		if c.Quick {
			c.Samples2D = 50
		} else {
			c.Samples2D = 1000
		}
	}
	if c.Samples3D == 0 {
		if c.Quick {
			c.Samples3D = 20
		} else {
			c.Samples3D = 500
		}
	}
	return c
}

// DistRow is one (query group, curve) cell of a box-plot figure: the five
// number summary the paper's plots encode.
type DistRow struct {
	Group   string
	Curve   string
	Summary stats.Summary
}

// RenderDistRows renders distribution rows as a table.
func RenderDistRows(title string, rows []DistRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		s := r.Summary
		out = append(out, []string{
			r.Group, r.Curve,
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.0f", s.Min),
			fmt.Sprintf("%.1f", s.Q1),
			fmt.Sprintf("%.1f", s.Median),
			fmt.Sprintf("%.1f", s.Q3),
			fmt.Sprintf("%.0f", s.Max),
			fmt.Sprintf("%.2f", s.Mean),
		})
	}
	return title + "\n" + stats.FormatTable(
		[]string{"group", "curve", "n", "min", "q1", "median", "q3", "max", "mean"}, out)
}

// CountAuto picks the cheapest exact counter available for the curve:
// Lemma 1 boundary counting for continuous curves, the jump-aware variant
// for almost-continuous curves, sorted run counting otherwise.
func CountAuto(c curve.Curve, r geom.Rect) (uint64, error) {
	if curve.IsContinuous(c) {
		return cluster.CountContinuous(c, r)
	}
	if _, ok := c.(cluster.JumpLister); ok {
		return cluster.CountNearContinuous(c, r)
	}
	return cluster.CountSorted(c, r, 0)
}

// distribution measures the clustering numbers of all queries under every
// curve and summarizes per curve. Queries are counted in parallel: the
// curves are immutable after construction and every counter allocates its
// own scratch space.
func distribution(group string, curves []curve.Curve, queries []geom.Rect) ([]DistRow, error) {
	workers := runtime.GOMAXPROCS(0)
	rows := make([]DistRow, 0, len(curves))
	for _, c := range curves {
		vals := make([]uint64, len(queries))
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi := range next {
					n, err := CountAuto(c, queries[qi])
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("%s on %v: %w", c.Name(), queries[qi], err)
						}
						mu.Unlock()
						continue
					}
					vals[qi] = n
				}
			}()
		}
		for qi := range queries {
			next <- qi
		}
		close(next)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		rows = append(rows, DistRow{Group: group, Curve: c.Name(), Summary: stats.SummarizeUints(vals)})
	}
	return rows, nil
}

// curves2D returns the two curves every 2D figure compares (onion first).
func curves2D(side uint32) ([]curve.Curve, error) {
	o, err := core.NewOnion2D(side)
	if err != nil {
		return nil, err
	}
	h, err := baseline.NewHilbert(2, side)
	if err != nil {
		return nil, err
	}
	return []curve.Curve{o, h}, nil
}

// curves3D returns the 3D pair.
func curves3D(side uint32) ([]curve.Curve, error) {
	o, err := core.NewOnion3D(side)
	if err != nil {
		return nil, err
	}
	h, err := baseline.NewHilbert(3, side)
	if err != nil {
		return nil, err
	}
	return []curve.Curve{o, h}, nil
}
