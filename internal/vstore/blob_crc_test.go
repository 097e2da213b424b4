package vstore

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBlobCommitted streams data into a committed blob chain and closes
// the DB so the pages are durable on disk.
func writeBlobCommitted(t *testing.T, path string, data []byte) BlobRef {
	t.Helper()
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	w := db.NewBlobWriter(tx)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	ref, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestBlobPageChecksumRoundTrip pins that sealed pages carry a valid
// checksum across close/reopen for all page-count shapes (single page,
// exact boundary, multi-page).
func TestBlobPageChecksumRoundTrip(t *testing.T) {
	for _, size := range []int{1, blobChunkMax, 3*blobChunkMax + 41} {
		path := filepath.Join(t.TempDir(), "crc.db")
		want := streamPattern(size)
		ref := writeBlobCommitted(t, path, want)

		db, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(db.NewBlobReader(nil, ref))
		if err != nil {
			t.Fatalf("size=%d: read: %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size=%d: payload mismatch", size)
		}
		db.Close()
	}
}

// TestBlobPageChecksumDetectsCorruption flips one payload byte of each
// page of a committed multi-page blob directly in the data file and
// requires the reader to fail with a checksum error at exactly that
// page — never to return corrupt bytes as data.
func TestBlobPageChecksumDetectsCorruption(t *testing.T) {
	size := 2*blobChunkMax + 100
	path := filepath.Join(t.TempDir(), "corrupt.db")
	ref := writeBlobCommitted(t, path, streamPattern(size))

	// Walk the chain once (clean DB) to learn the page IDs.
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var chain []PageID
	for id := ref.First; id != invalidPage; {
		p, err := db.pager.get(id)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, id)
		id = p.Link()
	}
	db.Close()
	if len(chain) != 3 {
		t.Fatalf("blob spans %d pages, want 3", len(chain))
	}

	for pi, pid := range chain {
		// Flip a payload byte on disk, mid-chunk.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := int64(pid)*PageSize + blobDataOff + 37
		corrupted := append([]byte(nil), raw...)
		corrupted[off] ^= 0x40
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}

		db, err := Open(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.ReadAll(db.NewBlobReader(nil, ref))
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("page %d: read err = %v, want checksum mismatch", pi, err)
		}
		db.Close()

		// Restore for the next page's corruption round.
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOldFormatVersionRejected pins the version gate that accompanies
// the blob-layout change: a file stamped with the pre-CRC format
// version must fail at Open with a clear version error, not limp into
// per-page checksum mismatches on every blob read.
func TestOldFormatVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.db")
	writeBlobCommitted(t, path, streamPattern(64))

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(raw[offMetaVersion:], 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil || !strings.Contains(err.Error(), "unsupported format version") {
		t.Fatalf("Open err = %v, want unsupported format version", err)
	}
}

// TestBlobPageChecksumHeaderCorruptionStillErrors flips a bit inside the
// stored CRC itself: the payload is intact but the seal no longer
// matches, which must also surface as a checksum error (a torn header
// write is as fatal as a torn payload).
func TestBlobPageChecksumHeaderCorruptionStillErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdr.db")
	ref := writeBlobCommitted(t, path, streamPattern(blobChunkMax/2))

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(ref.First)*PageSize + offBlobCRC
	stored := binary.BigEndian.Uint32(raw[off:])
	binary.BigEndian.PutUint32(raw[off:], stored^1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := io.ReadAll(db.NewBlobReader(nil, ref)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("read err = %v, want checksum mismatch", err)
	}
}
