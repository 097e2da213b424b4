package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cbvr/internal/catalog"
	"cbvr/internal/synthvid"
)

// rowFingerprint flattens the mutable (re-indexed) columns of a row.
func rowFingerprint(k *catalog.KeyFrame) string {
	return fmt.Sprintf("%d|%d|%d|%d|%s|%s|%s|%s|%s|%s|%s",
		k.ID, k.Min, k.Max, k.MajorRegions, k.SCH, k.GLCM, k.Gabor, k.Tamura, k.ACC, k.Naive, k.Regions)
}

func fingerprints(t *testing.T, eng *Engine, videoID int64) []string {
	t.Helper()
	rows, err := eng.Store().KeyFramesOfVideo(nil, videoID)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, k := range rows {
		out[i] = rowFingerprint(k)
	}
	return out
}

// staleify overwrites every key frame's feature columns (and bucket) with
// the first row's values — valid, parsable descriptors that differ from
// what re-extraction produces — so a subsequent ReindexVideoCtx makes a
// distinguishable change. This stands in for "the extraction code
// evolved since these rows were written", the scenario re-index exists
// for.
func staleify(t *testing.T, eng *Engine, videoID int64) {
	t.Helper()
	rows, err := eng.Store().KeyFramesOfVideo(nil, videoID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("degenerate fixture: %d key frames", len(rows))
	}
	donor := rows[0]
	tx, err := eng.Store().Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range rows[1:] {
		stale := *k
		stale.Min, stale.Max = donor.Min, donor.Max
		stale.SCH, stale.GLCM, stale.Gabor, stale.Tamura = donor.SCH, donor.GLCM, donor.Gabor, donor.Tamura
		stale.ACC, stale.Naive, stale.Regions = donor.ACC, donor.Naive, donor.Regions
		stale.MajorRegions = donor.MajorRegions
		if err := eng.Store().UpdateKeyFrame(tx, &stale); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// crashFixture builds an engine at a managed path with one ingested,
// staleified video, and returns the stale fingerprints.
func crashFixture(t *testing.T, dir string) (*Engine, int64, []string) {
	t.Helper()
	raw, _ := testContainer(t, synthvid.Sports, 71, 20)
	eng, err := Open(filepath.Join(dir, "crash.db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.IngestVideoStreamCtx(context.Background(), "crash", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	staleify(t, eng, res.VideoID)
	return eng, res.VideoID, fingerprints(t, eng, res.VideoID)
}

// assertAllOldOrAllNew fails unless every row matches the old set or
// every row matches the new set.
func assertAllOldOrAllNew(t *testing.T, label string, got, old, new []string) {
	t.Helper()
	if len(got) != len(old) || len(got) != len(new) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(old))
	}
	allOld, allNew := true, true
	for i := range got {
		if got[i] != old[i] {
			allOld = false
		}
		if got[i] != new[i] {
			allNew = false
		}
	}
	if !allOld && !allNew {
		t.Errorf("%s: recovered rows are a MIX of old and new feature rows", label)
	}
}

// TestReindexCrashMidTransaction kills the database from inside the
// replacement transaction — after the first row update, and again with
// every update applied but uncommitted. Recovery must yield the complete
// old feature rows; the half-applied transaction must vanish.
func TestReindexCrashMidTransaction(t *testing.T) {
	for _, stage := range []string{"mid-update", "pre-commit"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			eng, videoID, old := crashFixture(t, dir)
			eng.reindexHook = func(s string) {
				if s == stage {
					eng.Store().DB().SimulateCrash()
				}
			}
			if _, err := eng.ReindexVideoCtx(context.Background(), videoID); err == nil {
				t.Fatal("reindex across a crash reported success")
			}

			re, err := Open(filepath.Join(dir, "crash.db"), Options{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer re.Close()
			got := fingerprints(t, re, videoID)
			for i := range got {
				if got[i] != old[i] {
					t.Fatalf("row %d changed by a crashed (uncommitted) reindex", i)
				}
			}
			// The recovered store re-indexes cleanly.
			if _, err := re.ReindexVideoCtx(context.Background(), videoID); err != nil {
				t.Fatalf("reindex after recovery: %v", err)
			}
		})
	}
}

// TestReindexWALKillSweep is the fault-injection sweep: run a full
// ReindexVideoCtx, crash without flushing, then truncate the WAL at many
// byte offsets — torn page images, missing commit record, intact log —
// and reopen each image. Every recovery must surface either the complete
// old rows or the complete new rows, never a mix: the WAL's
// all-or-nothing commit is exactly what makes in-place re-indexing safe.
func TestReindexWALKillSweep(t *testing.T) {
	dir := t.TempDir()
	eng, videoID, old := crashFixture(t, dir)
	// Checkpoint so the WAL holds only the reindex transaction.
	if err := eng.Store().DB().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReindexVideoCtx(context.Background(), videoID); err != nil {
		t.Fatal(err)
	}
	new := fingerprints(t, eng, videoID)
	eng.Store().DB().SimulateCrash()

	dataImg, err := os.ReadFile(filepath.Join(dir, "crash.db"))
	if err != nil {
		t.Fatal(err)
	}
	walImg, err := os.ReadFile(filepath.Join(dir, "crash.db.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(walImg) == 0 {
		t.Fatal("fixture WAL empty; sweep would be vacuous")
	}

	cuts := []int{0, 1, 7, len(walImg) / 4, len(walImg) / 2, 3 * len(walImg) / 4, len(walImg) - 5, len(walImg) - 1, len(walImg)}
	sawOld, sawNew := false, false
	for _, cut := range cuts {
		label := fmt.Sprintf("wal[:%d]", cut)
		rdir := t.TempDir()
		path := filepath.Join(rdir, "crash.db")
		if err := os.WriteFile(path, dataImg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".wal", walImg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		got := fingerprints(t, re, videoID)
		assertAllOldOrAllNew(t, label, got, old, new)
		allNew := true
		for i := range got {
			if got[i] != new[i] {
				allNew = false
			}
		}
		if allNew {
			sawNew = true
		} else {
			sawOld = true
		}
		// Whatever state recovery chose, the store must stay fully
		// re-indexable.
		if _, err := re.ReindexVideoCtx(context.Background(), videoID); err != nil {
			t.Fatalf("%s: reindex after recovery: %v", label, err)
		}
		re.Close()
	}
	if !sawOld || !sawNew {
		t.Errorf("sweep did not exercise both outcomes (old=%v new=%v)", sawOld, sawNew)
	}
}
