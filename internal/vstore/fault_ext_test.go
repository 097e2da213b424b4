package vstore_test

import (
	"bytes"
	"errors"
	"syscall"
	"testing"

	"cbvr/internal/vstore"
	"cbvr/internal/vstore/faultfs"
)

// These tests run in the external test package: faultfs imports vstore,
// so in-package vstore tests cannot import faultfs back.

func faultSchema() vstore.Schema {
	return vstore.Schema{
		Name: "T",
		Cols: []vstore.Column{
			{Name: "ID", Type: vstore.TypeInt64, NotNull: true},
			{Name: "NAME", Type: vstore.TypeText},
			{Name: "RANK", Type: vstore.TypeInt64, NotNull: true},
			{Name: "PAYLOAD", Type: vstore.TypeBlob},
		},
	}
}

func faultRow(pk int64, name string, rank int64, payload []byte) []vstore.Value {
	return []vstore.Value{
		vstore.Int64(pk),
		vstore.Text(name),
		vstore.Int64(rank),
		vstore.Blob(payload),
	}
}

// openFaultDB opens a DB over fs with a small cache so eviction writes run
// under fault injection too.
func openFaultDB(t *testing.T, fs *faultfs.FS) *vstore.DB {
	t.Helper()
	db, err := vstore.Open("fault.db", &vstore.Options{FS: fs, CachePages: 8})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return db
}

func commitRow(t *testing.T, db *vstore.DB, tbl *vstore.Table, pk int64, payload []byte) error {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	if _, err := tbl.Insert(tx, faultRow(pk, "r", pk%200, payload)); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// failNext arms a one-shot fault on the next matching op.
func failNext(fs *faultfs.FS, kind faultfs.OpKind, name string, act faultfs.Action) {
	fired := false
	fs.SetInjector(func(op faultfs.Op) faultfs.Action {
		if !fired && op.Kind == kind && op.Name == name {
			fired = true
			return act
		}
		return faultfs.ActNone
	})
}

func setupFaultTable(t *testing.T, db *vstore.DB) *vstore.Table {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(tx, faultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func mustCleanExt(t *testing.T, db *vstore.DB) {
	t.Helper()
	rep, err := vstore.Check(db)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck found problems: %v", rep.Problems)
	}
}

// TestDegradedStickyOnWALAppendFault: a failed WAL append mid-commit must
// poison the DB into sticky read-only mode, keep reads serving the prior
// committed state, and reopen cleanly without the failed transaction.
func TestDegradedStickyOnWALAppendFault(t *testing.T) {
	fs := faultfs.New()
	db := openFaultDB(t, fs)
	tbl := setupFaultTable(t, db)
	if err := commitRow(t, db, tbl, 1, bytes.Repeat([]byte{0xA1}, 6000)); err != nil {
		t.Fatal(err)
	}

	failNext(fs, faultfs.OpWrite, "fault.db.wal", faultfs.ActErr)
	err := commitRow(t, db, tbl, 2, bytes.Repeat([]byte{0xB2}, 6000))
	if err == nil {
		t.Fatal("commit under WAL write fault succeeded")
	}
	if !errors.Is(err, vstore.ErrReadOnly) {
		t.Fatalf("commit error %v does not wrap ErrReadOnly", err)
	}
	fs.SetInjector(nil)

	if db.Degraded() == nil {
		t.Fatal("DB not degraded after WAL append fault")
	}
	// Mutations fail fast, stickily.
	if _, err := db.Begin(); !errors.Is(err, vstore.ErrReadOnly) {
		t.Fatalf("Begin while degraded: %v", err)
	}
	if _, err := db.NewStagedBlobWriter(); !errors.Is(err, vstore.ErrReadOnly) {
		t.Fatalf("NewStagedBlobWriter while degraded: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, vstore.ErrReadOnly) {
		t.Fatalf("Checkpoint while degraded: %v", err)
	}
	// Reads keep serving the committed snapshot.
	row, ok, err := tbl.Get(nil, 1)
	if err != nil || !ok {
		t.Fatalf("read of committed row while degraded: ok=%v err=%v", ok, err)
	}
	b, err := db.ReadBlob(nil, row[3].Blob)
	if err != nil || len(b) != 6000 || b[0] != 0xA1 {
		t.Fatalf("blob read while degraded: len=%d err=%v", len(b), err)
	}
	if _, ok, _ := tbl.Get(nil, 2); ok {
		t.Fatal("failed transaction's row visible while degraded")
	}

	if err := db.Close(); err != nil {
		t.Fatalf("close degraded: %v", err)
	}
	db2, err := vstore.Open("fault.db", &vstore.Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	mustCleanExt(t, db2)
	tbl2, err := db2.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tbl2.Get(nil, 1); !ok {
		t.Fatal("committed row lost across degraded close")
	}
	// The append never reached the file, so the transaction cannot have
	// survived.
	if _, ok, _ := tbl2.Get(nil, 2); ok {
		t.Fatal("failed transaction resurrected")
	}
	if db2.Degraded() != nil {
		t.Fatal("fresh open inherited degraded state")
	}
}

// TestDegradedOnCommitSyncFault: a failed WAL fsync leaves the commit
// indeterminate. The running process must degrade and serve the pre-txn
// snapshot; after reopen the transaction may legitimately surface (its
// records were fully written, only the sync failed).
func TestDegradedOnCommitSyncFault(t *testing.T) {
	fs := faultfs.New()
	db := openFaultDB(t, fs)
	tbl := setupFaultTable(t, db)
	if err := commitRow(t, db, tbl, 1, []byte("base")); err != nil {
		t.Fatal(err)
	}

	failNext(fs, faultfs.OpSync, "fault.db.wal", faultfs.ActErr)
	err := commitRow(t, db, tbl, 2, []byte("maybe"))
	if !errors.Is(err, vstore.ErrReadOnly) {
		t.Fatalf("commit under fsync fault: %v", err)
	}
	fs.SetInjector(nil)
	// The live process serves the conservative pre-transaction snapshot.
	if _, ok, _ := tbl.Get(nil, 2); ok {
		t.Fatal("indeterminate commit visible while degraded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := vstore.Open("fault.db", &vstore.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	mustCleanExt(t, db2)
	// The records reached the (in-memory) file image; replay commits them.
	tbl2, _ := db2.Table("T")
	if _, ok, _ := tbl2.Get(nil, 2); !ok {
		t.Fatal("fully-written commit record not replayed after reopen")
	}
}

// TestStagedENOSPCNotDegraded: staging runs off-transaction, so a full
// disk mid-staged-write fails only that writer; the DB stays writable and
// reopens clean.
func TestStagedENOSPCNotDegraded(t *testing.T) {
	fs := faultfs.New()
	db := openFaultDB(t, fs)
	tbl := setupFaultTable(t, db)

	w, err := db.NewStagedBlobWriter()
	if err != nil {
		t.Fatal(err)
	}
	failNext(fs, faultfs.OpWrite, "fault.db", faultfs.ActENOSPC)
	// Two pages of payload guarantees at least one seal-time write.
	_, werr := w.Write(bytes.Repeat([]byte{0xEE}, 2*vstore.PageSize))
	if werr == nil {
		_, werr = w.Close()
	}
	if !errors.Is(werr, syscall.ENOSPC) {
		t.Fatalf("staged write error = %v, want ENOSPC", werr)
	}
	fs.SetInjector(nil)
	w.Discard()

	if err := db.Degraded(); err != nil {
		t.Fatalf("staged fault degraded the DB: %v", err)
	}
	// Store still fully writable.
	if err := commitRow(t, db, tbl, 7, []byte("after-enospc")); err != nil {
		t.Fatalf("commit after staged ENOSPC: %v", err)
	}
	mustCleanExt(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := vstore.Open("fault.db", &vstore.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	mustCleanExt(t, db2)
}

// TestDirEntrySurvivesPowerCut: committed data must survive a power cut
// that strikes immediately after commit — which requires the directory
// entries of the freshly created DB and WAL files to have been fsynced.
func TestDirEntrySurvivesPowerCut(t *testing.T) {
	fs := faultfs.New()
	db := openFaultDB(t, fs)
	tbl := setupFaultTable(t, db)
	if err := commitRow(t, db, tbl, 1, bytes.Repeat([]byte{0xCD}, 5000)); err != nil {
		t.Fatal(err)
	}
	fs.CutPower() // db's handles are now stale; do not Close

	db2, err := vstore.Open("fault.db", &vstore.Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen after power cut: %v", err)
	}
	defer db2.Close()
	mustCleanExt(t, db2)
	tbl2, err := db2.Table("T")
	if err != nil {
		t.Fatalf("table lost to power cut: %v", err)
	}
	row, ok, err := tbl2.Get(nil, 1)
	if err != nil || !ok {
		t.Fatalf("committed row lost to power cut: ok=%v err=%v", ok, err)
	}
	if b, err := db2.ReadBlob(nil, row[3].Blob); err != nil || len(b) != 5000 {
		t.Fatalf("blob lost to power cut: len=%d err=%v", len(b), err)
	}
}

// TestShortWriteDegradesAndSalvages: a short write (torn extension) during
// commit degrades the process; the reopened file's unaligned tail is
// truncated away and fsck passes.
func TestShortWriteDegradesAndSalvages(t *testing.T) {
	fs := faultfs.New()
	db := openFaultDB(t, fs)
	tbl := setupFaultTable(t, db)
	if err := commitRow(t, db, tbl, 1, bytes.Repeat([]byte{0x11}, 3000)); err != nil {
		t.Fatal(err)
	}
	failNext(fs, faultfs.OpWrite, "fault.db.wal", faultfs.ActShortWrite)
	err := commitRow(t, db, tbl, 2, bytes.Repeat([]byte{0x22}, 3000))
	if !errors.Is(err, vstore.ErrReadOnly) {
		t.Fatalf("commit under short write: %v", err)
	}
	fs.SetInjector(nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := vstore.Open("fault.db", &vstore.Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen after torn WAL write: %v", err)
	}
	defer db2.Close()
	mustCleanExt(t, db2)
	tbl2, _ := db2.Table("T")
	if _, ok, _ := tbl2.Get(nil, 1); !ok {
		t.Fatal("baseline row lost")
	}
}
