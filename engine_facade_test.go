package onion_test

import (
	"reflect"
	"testing"

	onion "github.com/onioncurve/onion"
)

// TestOptionFieldsPinned pins the exported fields of the five option
// structs: 15 in all, each listed with the caller that sets it in the
// README's "Options in use" table. A new option fails here until the pin
// and the table are edited — which is the moment to ask whether two
// callers need different values, or whether it is a constant.
func TestOptionFieldsPinned(t *testing.T) {
	exported := func(v any) []string {
		var names []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				names = append(names, f.Name)
			}
		}
		return names // in declaration order
	}
	total := 0
	for _, tc := range []struct {
		typ  any
		want []string
	}{
		{onion.EngineOptions{}, []string{"PageBytes", "FlushEntries", "SyncWrites", "Cache", "FS", "CommitHook"}},
		{onion.ShardedEngineOptions{}, []string{"Shards", "Engine", "CacheBytes", "FS"}},
		{onion.ReplConfig{}, []string{"ID", "Peers", "Transport", "Epoch"}},
		{onion.ReplFollowerOptions{}, []string{"Engine"}},
		{onion.IngestConfig{}, nil},
	} {
		got := exported(tc.typ)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%T exports %v, want exactly %v", tc.typ, got, tc.want)
		}
		total += len(got)
	}
	if total != 15 {
		t.Errorf("%d exported option fields, want 15", total)
	}
}

// TestOpenEngineFacade exercises the storage engine through the public
// facade: the full Put/Delete/Query/Flush/Compact/Stats/Close lifecycle
// plus a reopen, as a user of the package would drive it.
func TestOpenEngineFacade(t *testing.T) {
	o, err := onion.NewOnion2D(64)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := onion.OpenEngine(dir, o, onion.EngineOptions{PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for x := uint32(0); x < 64; x++ {
		for y := uint32(0); y < 8; y++ {
			if err := eng.Put(onion.Point{x, y}, uint64(x)<<8|uint64(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Delete(onion.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	q, err := onion.RectAt(onion.Point{0, 0}, []uint32{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 63 { // 8x8 corner minus the deleted origin
		t.Fatalf("%d records, want 63", len(recs))
	}
	if st.Planned == 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	es := eng.Stats()
	if es.Segments != 1 || es.SegmentRecords != 64*8-1 {
		t.Fatalf("engine stats %+v", es)
	}
	// Physical stats now match a bulk-loaded Store of the same records.
	recsAll, _, err := eng.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/ref.pst"
	if err := onion.WriteStore(path, o, recsAll, 512); err != nil {
		t.Fatal(err)
	}
	ref, err := onion.OpenStore(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refRecs, refStats, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	engRecs, engStats, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRecs) != len(engRecs) || engStats.Stats != refStats {
		t.Fatalf("engine %d/%+v vs store %d/%+v", len(engRecs), engStats.Stats, len(refRecs), refStats)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: everything still there.
	eng2, err := onion.OpenEngine(dir, o, onion.EngineOptions{PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	recs2, _, err := eng2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 63 {
		t.Fatalf("reopened: %d records, want 63", len(recs2))
	}
}

// TestPageCacheFacade drives the performance layer through the public
// facade: a shared PageCache behind a cached Store and a cached Engine,
// the QueryAppend buffer-reuse path, and the hit-rate summary.
func TestPageCacheFacade(t *testing.T) {
	o, err := onion.NewOnion2D(64)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache := onion.NewPageCache(1 << 20)
	eng, err := onion.OpenEngine(dir, o, onion.EngineOptions{PageBytes: 512, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for x := uint32(0); x < 64; x++ {
		for y := uint32(0); y < 64; y++ {
			if err := eng.Put(onion.Point{x, y}, uint64(x)<<8|uint64(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	q, err := onion.RectAt(onion.Point{8, 8}, []uint32{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	var dst []onion.Record
	var cold, warm onion.EngineQueryStats
	if dst, cold, err = eng.QueryAppend(dst[:0], q); err != nil {
		t.Fatal(err)
	}
	if dst, warm, err = eng.QueryAppend(dst[:0], q); err != nil {
		t.Fatal(err)
	}
	if len(dst) != 16*16 {
		t.Fatalf("%d records, want %d", len(dst), 16*16)
	}
	// Logical stats identical; the warm pass is served from the cache.
	cold.IO, warm.IO = onion.StoreIOStats{}, onion.StoreIOStats{}
	if cold != warm {
		t.Fatalf("stats changed between passes: %+v vs %+v", cold, warm)
	}
	cst := eng.CacheStats()
	if cst.Hits == 0 || cst.HitRate() <= 0 {
		t.Fatalf("cache stats %+v", cst)
	}

	// The same cache can back a read-only store of the same layout.
	recs := make([]onion.Record, 0, 100)
	for i := 0; i < 100; i++ {
		recs = append(recs, onion.Record{Point: onion.Point{uint32(i % 64), uint32(i / 64)}, Payload: uint64(i)})
	}
	path := t.TempDir() + "/facade.pst"
	if err := onion.WriteStore(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	st, err := onion.OpenStoreCached(path, o, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, stats, err := st.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || stats.Results != 100 {
		t.Fatalf("%d records (stats %+v), want 100", len(got), stats)
	}
}
