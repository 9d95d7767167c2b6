package curvetest

import (
	"sync/atomic"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
)

// PlannedCurve is a curve with an analytic range planner.
type PlannedCurve interface {
	curve.Curve
	curve.RangePlanner
	curve.RangeAppender
}

// Counting wraps a curve and counts how often the code it is handed to
// evaluates it, in keys: IndexKeys counts points mapped to keys (Index, and
// each point of an IndexBatch), CoordsKeys keys mapped back to points
// (Coords, and each key of a CoordsBatch). The planner is forwarded, so
// planning a rectangle counts nothing: its own arithmetic is the curve's
// business, not a point or a key the store evaluates.
type Counting struct {
	PlannedCurve
	IndexKeys, CoordsKeys atomic.Int64
}

// Index counts one point and maps it.
func (c *Counting) Index(p geom.Point) uint64 {
	c.IndexKeys.Add(1)
	return c.PlannedCurve.Index(p)
}

// IndexBatch counts len(pts) points and maps them.
func (c *Counting) IndexBatch(pts []geom.Point, dst []uint64) {
	c.IndexKeys.Add(int64(len(pts)))
	curve.IndexBatch(c.PlannedCurve, pts, dst)
}

// Coords counts one key and maps it back.
func (c *Counting) Coords(h uint64, dst geom.Point) geom.Point {
	c.CoordsKeys.Add(1)
	return c.PlannedCurve.Coords(h, dst)
}

// CoordsBatch counts len(keys) keys and maps them back.
func (c *Counting) CoordsBatch(keys []uint64, dst []geom.Point) {
	c.CoordsKeys.Add(int64(len(keys)))
	curve.CoordsBatch(c.PlannedCurve, keys, dst)
}

// Reset zeroes both counts.
func (c *Counting) Reset() {
	c.IndexKeys.Store(0)
	c.CoordsKeys.Store(0)
}
