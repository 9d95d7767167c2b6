package engine

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// loadRecords is fwWorkload's puts, in order: the points recur, so a
// load of them must keep the last record of each.
func loadRecords() []Record {
	var recs []Record
	for _, op := range fwWorkload() {
		if !op.del {
			recs = append(recs, Record{Point: op.pt, Payload: op.pay})
		}
	}
	return recs
}

// TestLoadKeepsLastOfEachPoint: a load of records whose points repeat
// serves what a run of Puts of the same records, then a Flush, serves —
// the last record of each point — with the same stats.
func TestLoadKeepsLastOfEachPoint(t *testing.T) {
	o := fwCurve(t)
	recs := loadRecords()
	dir := filepath.Join(t.TempDir(), "loaded")
	if err := Load(dir, o, recs, Options{PageBytes: 88}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(dir, o, Options{FlushEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	put, err := Open(t.TempDir(), o, Options{PageBytes: 88, FlushEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer put.Close()
	for _, r := range recs {
		if err := put.Put(r.Point, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := put.Flush(); err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := loaded.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := put.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(recs) {
		t.Fatalf("%d records from %d with repeated points", len(got), len(recs))
	}
	if !reflect.DeepEqual(got, want) || gotSt.Stats != wantSt.Stats {
		t.Fatalf("load: %d records, %+v; puts: %d records, %+v", len(got), gotSt.Stats, len(want), wantSt.Stats)
	}
	if es := loaded.Stats(); es.Segments != 1 || es.SegmentRecords != len(want) {
		t.Fatalf("loaded engine %+v, want one segment of %d records", es, len(want))
	}
}

// TestLoadRejectsPointOutsideUniverse: a point outside the universe, or
// of the wrong dimension, is an error found before anything is written:
// nothing is at dir or at the staging path.
func TestLoadRejectsPointOutsideUniverse(t *testing.T) {
	o := fwCurve(t)
	for _, bad := range []geom.Point{{fwSide, 0}, {0, 0, 0}} {
		dir := filepath.Join(t.TempDir(), "loaded")
		recs := append(loadRecords(), Record{Point: bad})
		if err := Load(dir, o, recs, Options{}); !errors.Is(err, ErrPoint) {
			t.Fatalf("load of %v = %v, want ErrPoint", bad, err)
		}
		for _, p := range []string{dir, dir + ".load-tmp"} {
			if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s after a refused load: %v, want it absent", p, err)
			}
		}
	}
}

// TestLoadRefusesExistingDir: Load builds a new directory and never
// writes into one that exists, even an empty one.
func TestLoadRefusesExistingDir(t *testing.T) {
	o := fwCurve(t)
	dir := t.TempDir()
	if err := Load(dir, o, loadRecords(), Options{}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("load into an existing directory = %v, want already exists", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("existing directory after a refused load: %v entries, %v", ents, err)
	}
}

// TestLoadFaultMatrix fails and crashes every injectable operation of a
// load, one at a time: dir is left absent or complete, and a retry on a
// healthy filesystem completes.
func TestLoadFaultMatrix(t *testing.T) {
	o := fwCurve(t)
	recs := loadRecords()
	want := make(map[uint64]uint64)
	for _, r := range recs {
		want[o.Index(r.Point)] = r.Payload
	}
	buildFaultMatrix(t, "loaded", want, func(target string, fsys vfs.FS) error {
		return Load(target, o, recs, Options{PageBytes: 88, FS: fsys})
	})
}
