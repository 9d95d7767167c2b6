package onion_test

import (
	"testing"

	onion "github.com/onioncurve/onion"
)

// TestOpenShardedEngineFacade exercises the sharded query service
// through the public facade: the Put/Delete/Query/Flush/Compact/Stats/
// Close lifecycle, a reopen with the recorded configuration, and the
// equivalence of a sharded query with a single-engine query over the
// same records.
func TestOpenShardedEngineFacade(t *testing.T) {
	o, err := onion.NewOnion2D(64)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := onion.ShardedEngineOptions{
		Shards: 4,
		Engine: onion.EngineOptions{PageBytes: 512},
	}
	s, err := onion.OpenShardedEngine(dir, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", s.Shards())
	}
	single, err := onion.OpenEngine(t.TempDir(), o, opts.Engine)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for x := uint32(0); x < 64; x++ {
		for y := uint32(0); y < 16; y++ {
			p := onion.Point{x, y}
			v := uint64(x)<<8 | uint64(y)
			if err := s.Put(p, v); err != nil {
				t.Fatal(err)
			}
			if err := single.Put(p, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete(onion.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := single.Delete(onion.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	q, err := onion.RectAt(onion.Point{0, 0}, []uint32{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, wst, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("%d records, single engine %d", len(recs), len(want))
	}
	for i := range want {
		if !recs[i].Point.Equal(want[i].Point) || recs[i].Payload != want[i].Payload {
			t.Fatalf("record %d = %v/%d, single engine %v/%d",
				i, recs[i].Point, recs[i].Payload, want[i].Point, want[i].Payload)
		}
	}
	if st.Planned != wst.Planned || st.Results != wst.Results {
		t.Fatalf("sharded stats %+v vs single %+v", st, wst)
	}
	if st.ShardsTouched < 1 || len(st.PerShard) != st.ShardsTouched {
		t.Fatalf("fan-out stats %+v", st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	es := s.Stats()
	if len(es.PerShard) != 4 || es.SegmentRecords != 64*16-1 {
		t.Fatalf("engine stats %+v", es)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening with a different shard count must refuse.
	bad := opts
	bad.Shards = 2
	if _, err := onion.OpenShardedEngine(dir, o, bad); err == nil {
		t.Fatal("shard count change accepted")
	}
	// The recorded configuration reopens with all data.
	s2, err := onion.OpenShardedEngine(dir, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	all, _, err := s2.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 64*16-1 {
		t.Fatalf("reopened engine has %d records, want %d", len(all), 64*16-1)
	}
}
