package vstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// testdata/legacy_index.db was written by a vstore that still maintained
// secondary indexes. It holds table T (testSchema's columns) with rows pk
// 1..6, NAME "legacy", RANK pk%3 and PAYLOAD "legacy-blob", plus a BY_RANK
// index over RANK: a populated B+tree whose root and spec sit in the
// catalog's "indexes" fields.
const legacyFixture = "testdata/legacy_index.db"

// persistedCatalog returns the catalog JSON the meta page points at.
func persistedCatalog(t *testing.T, db *DB) []byte {
	t.Helper()
	meta, err := db.pager.get(0)
	if err != nil {
		t.Fatal(err)
	}
	first := PageID(binary.BigEndian.Uint32(meta.data[offMetaCatalog:]))
	n := int64(binary.BigEndian.Uint64(meta.data[offMetaCatLen:]))
	raw, err := db.readBlobChain(first, n)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLegacyIndexStoreOpens pins that a file carrying the retired
// secondary index opens, checks clean and takes writes: the decoder ignores
// the "indexes" fields, the index pages are unreachable orphans, and the
// next catalog persist drops the fields.
func TestLegacyIndexStoreOpens(t *testing.T) {
	raw, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.db")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !bytes.Contains(persistedCatalog(t, db), []byte(`"indexes"`)) {
		t.Fatal("fixture catalog has no legacy indexes fields")
	}
	mustClean(t, db)

	tbl, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	for pk := int64(1); pk <= 6; pk++ {
		row, ok, err := tbl.Get(nil, pk)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", pk, ok, err)
		}
		blob, err := db.ReadBlob(nil, row[4].Blob)
		if err != nil || row[1].Str != "legacy" || row[6].Int != pk%3 || string(blob) != "legacy-blob" {
			t.Fatalf("pk %d reads back %v, blob %q, err %v", pk, row, blob, err)
		}
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(tx, sampleRow(7, "new", 4, []byte("new-blob"))); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(tx, 2, sampleRow(2, "updated", 9, []byte("updated-blob"))); err != nil {
		t.Fatal(err)
	}
	if ok, err := tbl.Delete(tx, 3); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mustClean(t, db)

	// Creating a table always persists the catalog.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(tx, Schema{Name: "U", Cols: []Column{{Name: "ID", Type: TypeInt64}}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if cat := persistedCatalog(t, db); bytes.Contains(cat, []byte(`"indexes"`)) {
		t.Errorf("catalog still carries legacy indexes after a persist: %s", cat)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustClean(t, db)
	tbl, err = db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tbl.Count(nil); err != nil || n != 6 {
		t.Fatalf("count after reopen: %d, %v", n, err)
	}
	row, ok, err := tbl.Get(nil, 2)
	if err != nil || !ok || row[1].Str != "updated" || row[6].Int != 9 {
		t.Fatalf("updated row after reopen: ok=%v err=%v row=%v", ok, err, row)
	}
	if _, ok, _ := tbl.Get(nil, 3); ok {
		t.Error("deleted row 3 survived reopen")
	}
}
