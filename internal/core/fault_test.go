package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"syscall"
	"testing"

	"cbvr/internal/cvj"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
	"cbvr/internal/vstore/faultfs"
)

// TestIngestENOSPCMidStagedWrite hits one of two concurrent ingests with
// ENOSPC in the middle of its staged blob spool. Staging runs off-txn, so
// the contract is: the victim fails with ENOSPC and discards cleanly, the
// other ingest commits untouched, no orphan video registration survives,
// the store is NOT degraded, and a reopen passes fsck.
func TestIngestENOSPCMidStagedWrite(t *testing.T) {
	ffs := faultfs.New()
	eng, err := Open("ingest.db", Options{Store: vstore.Options{FS: ffs}})
	if err != nil {
		t.Fatal(err)
	}

	containers := make([][]byte, 2)
	for i := range containers {
		v := genVideo(synthvid.Category(i), int64(70+i))
		raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
		if err != nil {
			t.Fatal(err)
		}
		containers[i] = raw
	}

	// Arm: the next direct write to the data file is a staged page (commits
	// go through the WAL file, and the default cache is big enough that no
	// eviction writes pages mid-ingest), so it draws ENOSPC.
	fired := false
	ffs.SetInjector(func(op faultfs.Op) faultfs.Action {
		if !fired && op.Kind == faultfs.OpWrite && op.Name == "ingest.db" {
			fired = true
			return faultfs.ActENOSPC
		}
		return faultfs.ActNone
	})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.IngestVideoStreamCtx(context.Background(), "clip", bytes.NewReader(containers[i]))
		}(i)
	}
	wg.Wait()
	ffs.SetInjector(nil)

	var failed, succeeded int
	for i, err := range errs {
		switch {
		case err == nil:
			succeeded++
		case errors.Is(err, syscall.ENOSPC):
			failed++
		default:
			t.Fatalf("ingest %d failed with %v, want nil or ENOSPC", i, err)
		}
	}
	if failed != 1 || succeeded != 1 {
		t.Fatalf("failed=%d succeeded=%d, want exactly one of each", failed, succeeded)
	}

	// Staging is off-transaction: a full disk there must not poison the DB.
	if err := eng.Degraded(); err != nil {
		t.Fatalf("store degraded after staged ENOSPC: %v", err)
	}

	// Only the successful ingest is registered — the victim's discard left
	// no orphan video row pointing at lost pages.
	vids, err := eng.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 1 {
		t.Fatalf("%d videos registered, want 1 (no orphans)", len(vids))
	}

	// The store stayed fully writable.
	if _, err := eng.IngestVideoStreamCtx(context.Background(), "after", bytes.NewReader(containers[0])); err != nil {
		t.Fatalf("ingest after staged ENOSPC: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the surviving bytes: recovery and fsck must both pass.
	db, err := vstore.Open("ingest.db", &vstore.Options{FS: ffs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	rep, err := vstore.Check(db)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck after staged ENOSPC: %v", rep.Problems)
	}
}
