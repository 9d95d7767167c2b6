// Backup and recovery example: the full self-healing story in one run.
// An engine takes a consistent snapshot mid-ingest, keeps writing (the
// retired WALs land in the archive), and is then restored to three
// different points in time. Afterwards a segment file is corrupted on
// disk: the scrub quarantines it, the engine degrades to serving the
// intact remainder, and Repair rebuilds the lost pages from the
// snapshot — salvaging every CRC-clean page of the condemned file and
// back-filling only the damaged key intervals — until the store is
// Healthy again.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	onion "github.com/onioncurve/onion"
)

const side = 1 << 8

func main() {
	root, err := os.MkdirTemp("", "onion-recovery")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, "db")
	snap1 := filepath.Join(root, "backup-1")
	snap2 := filepath.Join(root, "backup-2")

	o, err := onion.NewOnion2D(side)
	if err != nil {
		log.Fatal(err)
	}
	opts := onion.EngineOptions{
		PageBytes:    1024,
		FlushEntries: -1,   // flush by hand so the timeline is deterministic
		SyncWrites:   true, // every op durable before it is acknowledged
	}
	eng, err := onion.OpenEngine(dir, o, opts)
	if err != nil {
		log.Fatal(err)
	}

	// --- Phase 1: ingest, snapshot, keep ingesting. --------------------
	put := func(lo, hi int) {
		for x := lo; x < hi; x++ {
			for y := 0; y < 64; y++ {
				if err := eng.Put(onion.Point{uint32(x), uint32(y)}, uint64(x*1000+y)); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	put(0, 32)
	if err := eng.Flush(); err != nil {
		log.Fatal(err)
	}
	s1, err := eng.Snapshot(snap1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full snapshot:        epoch %d, %d segments (%d hardlinked, %d copied)\n",
		s1.Epoch, s1.Segments, s1.Linked, s1.Copied)

	put(32, 48)
	if err := eng.Flush(); err != nil {
		log.Fatal(err)
	}
	s2, err := eng.SnapshotSince(snap2, snap1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("incremental snapshot: epoch %d, %d segments, %d reused from parent\n",
		s2.Epoch, s2.Segments, s2.Reused)

	// These writes are flushed after the last snapshot: a restore can
	// only reach them by replaying the archived WALs.
	put(48, 56)
	if err := eng.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}

	// --- Phase 2: point-in-time restore. -------------------------------
	count := func(dir string) int {
		e, err := onion.OpenEngine(dir, o, opts)
		if err != nil {
			log.Fatal(err)
		}
		recs, _, err := e.Query(o.Universe().Rect())
		if err != nil {
			log.Fatal(err)
		}
		if err := e.Close(); err != nil {
			log.Fatal(err)
		}
		return len(recs)
	}
	// upTo counts archived WAL generations beyond the snapshot: 0 is the
	// snapshot boundary alone, -1 replays everything in the archive.
	for _, pit := range []struct {
		upTo int
		what string
	}{{0, "snapshot boundary"}, {-1, "latest archived write"}} {
		target := filepath.Join(root, fmt.Sprintf("restored-%d", pit.upTo))
		rep, err := onion.RestoreEngine(snap2, target, pit.upTo, o, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restore to %-22s %d segments, %d WAL records replayed, %d records live\n",
			pit.what+":", rep.Segments, rep.Replayed, count(target))
	}

	// --- Phase 3: corruption, quarantine, repair. ----------------------
	segs, err := filepath.Glob(filepath.Join(dir, "*.pst"))
	if err != nil || len(segs) == 0 {
		log.Fatal("no segment files found")
	}
	// On the same device a snapshot hardlinks segments, so the backup
	// shares the live file's inode: scribbling on it in place would rot
	// the backup too (put real backups on another filesystem). Corrupt by
	// replacing the directory entry instead — the snapshot keeps the old
	// clean inode, exactly as if only the live copy had decayed.
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		log.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(segs[0]+".rot", buf, 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.Rename(segs[0]+".rot", segs[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflipped one bit in %s\n", filepath.Base(segs[0]))

	eng, err = onion.OpenEngine(dir, o, opts)
	if err != nil {
		log.Fatal(err)
	}
	vr, err := eng.Verify()
	if err != nil {
		log.Fatal(err)
	}
	h, herr := eng.Health()
	fmt.Printf("verify: %d segments checked, %d quarantined, health %v (%v)\n",
		vr.SegmentsChecked, len(vr.Quarantined), h, herr)
	for _, q := range vr.Quarantined {
		fmt.Printf("  condemned %s covering keys [%d, %d] — queries in that range are partial\n",
			filepath.Base(q.Path), q.Lo, q.Hi)
	}

	rr, err := eng.Repair(snap2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repair: %d/%d repaired — %d records salvaged from clean pages, %d back-filled from the snapshot\n",
		rr.Repaired, rr.Attempted, rr.Salvaged, rr.Backfilled)
	fmt.Printf("health after repair: %v\n", rr.Health)
	if rr.Health != onion.EngineHealthy {
		log.Fatalf("engine did not recover: %+v", rr)
	}

	// The repaired store serves the full data set again, durably.
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened store holds %d records — repaired state is durable\n", count(dir))
}
