package vstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
)

// streamPattern builds a deterministic byte payload that crosses page
// boundaries at awkward offsets.
func streamPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/blobChunkMax)
	}
	return b
}

// TestBlobWriterReaderRoundTrip streams values of many sizes through the
// transactional writer and reads them back chunk-wise and whole (staged
// chains: TestStagedBlobRoundTrip).
func TestBlobWriterReaderRoundTrip(t *testing.T) {
	db := openTestDB(t, nil)
	sizes := []int{0, 1, blobChunkMax - 1, blobChunkMax, blobChunkMax + 1, 3*blobChunkMax + 17, 64 << 10}
	for _, size := range sizes {
		name := fmt.Sprintf("size=%d", size)
		want := streamPattern(size)
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		w := db.NewBlobWriter(tx)
		// Dribble the value in odd-sized writes.
		for off := 0; off < len(want); {
			c := 1 + (off*13)%977
			if off+c > len(want) {
				c = len(want) - off
			}
			if _, err := w.Write(want[off : off+c]); err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
			off += c
		}
		ref, err := w.Close()
		if err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if ref.Len != int64(size) || ref.First == invalidPage {
			t.Fatalf("%s: ref %+v", name, ref)
		}
		// Read inside the transaction.
		got, err := io.ReadAll(db.NewBlobReader(tx, ref))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: in-tx read: err=%v len=%d want %d", name, err, len(got), len(want))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Read outside any transaction, with tiny reads.
		r := db.NewBlobReader(nil, ref)
		var out bytes.Buffer
		buf := make([]byte, 147)
		if _, err := io.CopyBuffer(&out, r, buf); err != nil {
			t.Fatalf("%s: post-commit read: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s: post-commit bytes differ", name)
		}
		// ReadBlob (whole-chain path) agrees.
		whole, err := db.ReadBlob(nil, ref)
		if err != nil || !bytes.Equal(whole, want) {
			t.Fatalf("%s: ReadBlob: err=%v", name, err)
		}
	}
}

// stageInto stages data as a blob chain outside any transaction and
// adopts it into tx, the way ingest stores its container.
func stageInto(t *testing.T, db *DB, tx *Txn, data []byte) BlobRef {
	t.Helper()
	w, err := db.NewStagedBlobWriter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(w, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	ref, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AdoptStaged(w); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestBlobRefInsertRoundTrip stages a value, adopts it and inserts the
// reference into a BLOB column: the row must read back with
// the pre-written chain intact, and deleting the row must free it.
func TestBlobRefInsertRoundTrip(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	want := streamPattern(5 * blobChunkMax)

	tx, _ := db.Begin()
	ref := stageInto(t, db, tx, want)
	row := sampleRow(0, "staged", 9, nil)
	row[4] = BlobRefV(ref)
	pk, err := tbl.Insert(tx, row)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	got, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if got[4].Blob != ref {
		t.Fatalf("stored ref %+v, want %+v", got[4].Blob, ref)
	}
	b, err := db.ReadBlob(nil, got[4].Blob)
	if err != nil || !bytes.Equal(b, want) {
		t.Fatalf("blob bytes differ: err=%v", err)
	}

	tx2, _ := db.Begin()
	if _, err := tbl.Delete(tx2, pk); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReadBlob(nil, ref); err == nil {
		t.Error("chain still readable as a blob after delete (pages not freed)")
	}
}

// TestSpooledBlobSurvivesCrash: an adopted staged chain far larger than
// the buffer pool, whose pages went straight to the data file before
// commit, must be fully recovered from the WAL after a crash.
func TestSpooledBlobSurvivesCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sp.db")
	db, err := Open(path, &Options{CachePages: 16}) // force eviction mid-write
	if err != nil {
		t.Fatal(err)
	}
	tbl := createTestTable(t, db)
	want := streamPattern(200 * blobChunkMax) // ~800KB, far beyond the pool

	tx, _ := db.Begin()
	ref := stageInto(t, db, tx, want)
	row := sampleRow(0, "crash", 3, nil)
	row[4] = BlobRefV(ref)
	pk, err := tbl.Insert(tx, row)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.SimulateCrash()

	db2, err := Open(path, &Options{CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := tbl2.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("row lost: ok=%v err=%v", ok, err)
	}
	b, err := db2.ReadBlob(nil, got[4].Blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("staged blob corrupted after crash recovery")
	}
}

// TestSpooledBlobAbortLeavesStoreUsable: aborting a transaction that
// adopted a large staged chain must leave the database consistent (the
// pages are documented file garbage) and the free list untouched.
func TestSpooledBlobAbortLeavesStoreUsable(t *testing.T) {
	db := openTestDB(t, &Options{CachePages: 16})
	tbl := createTestTable(t, db)

	tx, _ := db.Begin()
	stageInto(t, db, tx, streamPattern(64*blobChunkMax))
	tx.Abort()

	// The store keeps working: ordinary inserts, blobs, reads.
	tx2, _ := db.Begin()
	payload := streamPattern(3 * blobChunkMax)
	pk, err := tbl.Insert(tx2, sampleRow(0, "after-abort", 4, payload))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	row, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok {
		t.Fatal(err)
	}
	b, err := db.ReadBlob(nil, row[4].Blob)
	if err != nil || !bytes.Equal(b, payload) {
		t.Fatalf("post-abort blob: err=%v", err)
	}
}

// TestBlobWriterBoundedMemory pins the point of staging: writing a chain
// many times larger than the buffer pool, and committing it, must not grow
// the pool beyond its configured capacity (plus transiently pinned pages).
func TestBlobWriterBoundedMemory(t *testing.T) {
	const cache = 32
	db := openTestDB(t, &Options{CachePages: cache})
	w, err := db.NewStagedBlobWriter()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 8192)
	for i := 0; i < 300; i++ { // ~2.4MB through a 128KB pool
		rng.Read(buf)
		if _, err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
		if n := db.pager.lru.Len(); n > cache+2 {
			t.Fatalf("buffer pool grew to %d pages (cap %d): staged pages are entering it", n, cache)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	if err := tx.AdoptStaged(w); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.pager.lru.Len(); n > cache+2 {
		t.Fatalf("buffer pool grew to %d pages (cap %d) committing the chain", n, cache)
	}
}

// TestBlobReaderZeroRef: a zero reference reads as empty.
func TestBlobReaderZeroRef(t *testing.T) {
	db := openTestDB(t, nil)
	b, err := io.ReadAll(db.NewBlobReader(nil, BlobRef{First: invalidPage}))
	if err != nil || len(b) != 0 {
		t.Fatalf("zero ref: %d bytes, err=%v", len(b), err)
	}
}

// TestBlobReaderPageReusedUnderReader: a reader left open across the
// delete of its row, with the freed pages handed to new one-page blobs,
// must fail its next Read — never panic on a chunk now shorter than the
// bytes it has already taken from the page.
func TestBlobReaderPageReusedUnderReader(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	insert := func(payload []byte) int64 {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		pk, err := tbl.Insert(tx, sampleRow(0, "r", 1, payload))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return pk
	}
	pk := insert(streamPattern(20 << 10))
	row, _, err := tbl.Get(nil, pk)
	if err != nil {
		t.Fatal(err)
	}
	r := db.NewBlobReader(nil, row[4].Blob)
	if _, err := io.ReadFull(r, make([]byte, 865)); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(tx, pk); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	freeHead := func() PageID {
		db.mu.RLock()
		defer db.mu.RUnlock()
		meta, err := db.pager.get(0)
		if err != nil {
			t.Fatal(err)
		}
		return PageID(binary.BigEndian.Uint32(meta.data[offMetaFree:]))
	}
	for i := 0; freeHead() != invalidPage; i++ {
		if i == 100 {
			t.Fatal("free list never drained")
		}
		insert(streamPattern(100))
	}

	n, err := r.Read(make([]byte, 4096))
	if err == nil {
		t.Fatalf("read %d bytes from a freed and reused chain without an error", n)
	}
}
