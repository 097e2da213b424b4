package vstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Blob pages chain through the common header link field and store a chunk
// length at [16:18), a CRC-32C of the chunk payload at [18:22), then the
// payload bytes. The chain's total length lives with the reference (in
// the owning row or the meta page), not in the chain itself.
//
// The checksum is written when a page is sealed (its chunk is final:
// BlobWriter.advance / Close) and verified on every page fetch of a
// read — blob pages hold the corpus's bulk media bytes, live longest on
// disk, and a flipped payload bit would otherwise decode as silently
// corrupt JPEG/container data rather than erroring.
const (
	offBlobLen   = hdrCommon
	offBlobCRC   = hdrCommon + 2
	blobDataOff  = hdrCommon + 6
	blobChunkMax = PageSize - blobDataOff
)

// blobCRCTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64).
var blobCRCTable = crc32.MakeTable(crc32.Castagnoli)

// blobPageCRC hashes a blob page's current chunk payload.
func blobPageCRC(p *Page) uint32 {
	chunk := int(getU16(p.data[offBlobLen:]))
	if chunk > blobChunkMax {
		chunk = blobChunkMax // corrupt length; the reader errors before trusting the CRC
	}
	return crc32.Checksum(p.data[blobDataOff:blobDataOff+chunk], blobCRCTable)
}

// BlobRef locates an out-of-row value.
type BlobRef struct {
	First PageID `json:"first"`
	Len   int64  `json:"len"`
}

// IsZero reports whether the reference points at nothing.
func (r BlobRef) IsZero() bool { return r.First == invalidPage && r.Len == 0 }

// BlobWriter streams a value into a fresh blob page chain one chunk at a
// time, so callers never need the whole value in one []byte. Create one
// with NewBlobWriter (ordinary transactional pages) or NewStagedBlobWriter
// (large streams, outside any transaction; see that constructor), Write
// the bytes, then Close to obtain the BlobRef to store in a row —
// Table.Insert and Table.Update accept Value{Type: TypeBlob, Blob: ref}
// (see BlobRefV) and leave the pre-written chain untouched.
type BlobWriter struct {
	db *DB
	tx *Txn

	// staged marks a writer created by NewStagedBlobWriter: it runs
	// outside any transaction (and outside the DB writer lock), owns its
	// page images privately and must end in exactly one of Txn.AdoptStaged
	// or Discard.
	staged    bool
	pages     []PageID // every page of a staged chain, for adoption
	adopted   bool
	discarded bool

	first  PageID
	cur    *Page // page currently being filled
	curLen int   // payload bytes in cur
	n      int64 // total bytes written
	closed bool
	err    error
}

// NewBlobWriter returns a chunked writer appending to a new blob chain
// inside tx. Pages come from the ordinary transactional allocator (free
// list first), carry full before-images and stay pinned until the
// transaction finishes — right for catalog-sized values, but a value
// larger than the buffer pool should use NewStagedBlobWriter.
func (db *DB) NewBlobWriter(tx *Txn) *BlobWriter {
	return &BlobWriter{db: db, tx: tx}
}

// NewStagedBlobWriter returns a chunked writer that stages a blob chain
// OUTSIDE any transaction — and therefore outside the single-writer lock,
// so any number of stagers can stream concurrently with each other and
// with an active transaction. Pages are fresh file extensions reserved
// through the pager's own mutex, owned privately by the writer (they never
// enter the buffer pool), and written straight to the data file as each
// chunk seals, so a staged stream holds O(1) memory.
//
// The chain is unreachable and non-durable until a transaction adopts it
// (Txn.AdoptStaged) and commits, which WAL-logs its pages. Staged pages
// always extend the file (never the free list) and carry no
// before-images. A chain that will not be committed must be Discarded —
// its pages become unreachable file garbage, the same fate pages allocated
// by an aborted transaction meet. DB.Close refuses to run while staged
// writers are active (Write bytes would race the closing file handle).
//
// Registration takes only the dedicated stager mutex, never the writer
// lock, so a new upload can begin staging while another client's
// transaction is open — the point of staging.
func (db *DB) NewStagedBlobWriter() (*BlobWriter, error) {
	db.stageMu.Lock()
	defer db.stageMu.Unlock()
	if db.stageClosed {
		return nil, ErrClosed
	}
	if err := db.Degraded(); err != nil {
		// A staged chain could only ever be adopted by a transaction, and
		// no transaction can begin while degraded; fail the upload now
		// rather than after it streams gigabytes.
		return nil, err
	}
	db.stagers++
	return &BlobWriter{db: db, staged: true}, nil
}

// Discard abandons a staged chain (idempotent; a no-op after adoption).
// It takes only the stager-registration mutex, never the writer lock, so
// it is safe to call while another transaction is open — the cancellation
// path an aborted upload takes while a concurrent client commits.
func (w *BlobWriter) Discard() {
	if !w.staged || w.discarded || w.adopted {
		return
	}
	w.discarded = true
	w.closed = true
	w.cur = nil
	w.db.stageMu.Lock()
	w.db.stagers--
	w.db.stageMu.Unlock()
}

// AdoptStaged transfers a Closed staged chain into tx: its pages join the
// transaction's adopted set and are WAL-logged at commit, making the chain
// durable if and only if the transaction commits. The BlobRef obtained
// from the writer's Close may then be stored in rows inserted under tx.
func (tx *Txn) AdoptStaged(w *BlobWriter) error {
	if tx.done {
		return ErrTxnDone
	}
	if !w.staged {
		return errors.New("vstore: AdoptStaged of a non-staged blob writer")
	}
	if w.err != nil {
		return w.err
	}
	if w.discarded {
		return errors.New("vstore: AdoptStaged of a discarded blob chain")
	}
	if !w.closed {
		return errors.New("vstore: AdoptStaged before Close")
	}
	if w.adopted {
		return nil
	}
	w.adopted = true
	tx.spooled = append(tx.spooled, w.pages...)
	tx.db.stageMu.Lock()
	tx.db.stagers--
	tx.db.stageMu.Unlock()
	return nil
}

// Write appends p to the chain. It implements io.Writer.
func (w *BlobWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		w.err = fmt.Errorf("vstore: blob write after Close")
		return 0, w.err
	}
	written := 0
	for len(p) > 0 {
		if w.cur == nil || w.curLen == blobChunkMax {
			if err := w.advance(); err != nil {
				w.err = err
				return written, err
			}
		}
		c := copy(w.cur.data[blobDataOff+w.curLen:blobDataOff+blobChunkMax], p)
		w.curLen += c
		putU16(w.cur.data[offBlobLen:], uint16(w.curLen))
		p = p[c:]
		written += c
		w.n += int64(c)
	}
	return written, nil
}

// advance seals the current page (if any) and starts a fresh one.
func (w *BlobWriter) advance() error {
	p, err := w.allocNext()
	if err != nil {
		return err
	}
	p.SetType(pageTypeBlob)
	if w.first == invalidPage {
		w.first = p.id
	}
	if w.cur != nil {
		w.cur.SetLink(p.id)
		if err := w.sealCur(); err != nil {
			return err
		}
	}
	w.cur = p
	w.curLen = 0
	return nil
}

// allocNext hands out the chain's next page in the writer's mode.
func (w *BlobWriter) allocNext() (*Page, error) {
	if w.staged {
		// Detached: reserve the id under the pager mutex, but keep the
		// page image private to this writer — it never enters the buffer
		// pool, so staging cannot evict pages a transaction relies on.
		p := &Page{id: w.db.pager.extendDetached(), data: make([]byte, PageSize)}
		w.pages = append(w.pages, p.id)
		return p, nil
	}
	return w.db.allocPage(w.tx)
}

// sealCur finalises the just-completed page: its chunk length is now
// final, so the payload checksum is stamped, and staged pages are written
// to their file slot directly — durable only once a transaction adopts
// and WAL-logs them, crash-benign garbage otherwise. Transactional pages
// stay pinned by touch.
func (w *BlobWriter) sealCur() error {
	if w.cur == nil {
		return nil
	}
	binary.BigEndian.PutUint32(w.cur.data[offBlobCRC:], blobPageCRC(w.cur))
	if w.staged {
		return w.db.pager.writeDetached(w.cur)
	}
	return nil
}

// Close finalises the chain and returns its reference. A zero-length value
// still occupies one page so the reference remains addressable.
func (w *BlobWriter) Close() (BlobRef, error) {
	if w.err != nil {
		return BlobRef{}, w.err
	}
	if w.closed {
		return BlobRef{First: w.first, Len: w.n}, nil
	}
	if w.cur == nil {
		if err := w.advance(); err != nil {
			w.err = err
			return BlobRef{}, err
		}
	}
	if err := w.sealCur(); err != nil {
		w.err = err
		return BlobRef{}, err
	}
	w.closed = true
	return BlobRef{First: w.first, Len: w.n}, nil
}

// writeBlobChain stores data across freshly allocated blob pages and
// returns the first page of the chain, via the chunked writer.
func (db *DB) writeBlobChain(tx *Txn, data []byte) (PageID, error) {
	w := db.NewBlobWriter(tx)
	if _, err := w.Write(data); err != nil {
		return invalidPage, err
	}
	ref, err := w.Close()
	if err != nil {
		return invalidPage, err
	}
	return ref.First, nil
}

// BlobReader streams a blob chain's bytes without materialising them; it
// implements io.Reader. Created by DB.NewBlobReader.
type BlobReader struct {
	db        *DB
	tx        *Txn
	noLock    bool // caller already holds the DB lock
	cur       PageID
	off       int   // consumed bytes of the current page's chunk
	remaining int64 // bytes left per the reference
	err       error
	// scratch, when set, takes the pages missing from the buffer pool
	// (pager.getInto): a streamed value of any size then costs one page
	// of memory and evicts nothing.
	scratch *Page
}

// NewBlobReader returns a streaming reader over the referenced chain. With
// tx == nil each Read takes the database read lock, so a long-lived reader
// never blocks writers between calls. Nothing pins the chain between
// calls, though: a writer may free it and the allocator hand its pages to
// other values. A later Read can then fail (a page of another type, a
// chunk shorter than the bytes already read from it) or return the other
// value's bytes with no error at all, so a caller reading across writers
// must check after each Read that the chain is still owned (catalog's
// container reader re-reads its row). Pages missing from the buffer pool
// are read into one page owned by the reader and are not cached. A zero
// reference reads as empty.
func (db *DB) NewBlobReader(tx *Txn, ref BlobRef) *BlobReader {
	return &BlobReader{db: db, tx: tx, cur: ref.First, remaining: ref.Len, scratch: &Page{data: make([]byte, PageSize)}}
}

// Read implements io.Reader over the page chain.
func (r *BlobReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	if r.tx == nil && !r.noLock {
		r.db.mu.RLock()
		defer r.db.mu.RUnlock()
	}
	n := 0
	for n < len(p) && r.remaining > 0 {
		if r.cur == invalidPage {
			return r.fail(n, fmt.Errorf("vstore: blob chain truncated with %d bytes unread", r.remaining))
		}
		pg, err := r.db.pager.getInto(r.cur, r.scratch)
		if err != nil {
			return r.fail(n, err)
		}
		if pg.Type() != pageTypeBlob {
			return r.fail(n, fmt.Errorf("vstore: page %d in blob chain has type %d", r.cur, pg.Type()))
		}
		chunk := int(getU16(pg.data[offBlobLen:]))
		if chunk > blobChunkMax {
			return r.fail(n, fmt.Errorf("vstore: blob page %d chunk %d too large", r.cur, chunk))
		}
		if chunk == 0 {
			// Only a zero-length blob's single page carries an empty chunk,
			// and that is never read; mid-read it means corruption (and
			// guards against link cycles of empty pages).
			return r.fail(n, fmt.Errorf("vstore: blob page %d has empty chunk mid-chain", r.cur))
		}
		if r.off == 0 {
			// First touch of this page by this reader: verify the sealed
			// payload checksum before handing any of its bytes out.
			if want := binary.BigEndian.Uint32(pg.data[offBlobCRC:]); want != blobPageCRC(pg) {
				return r.fail(n, fmt.Errorf("vstore: blob page %d checksum mismatch", r.cur))
			}
		} else if r.off >= chunk {
			// Resuming a page whose chunk no longer covers what this reader
			// took from it: the chain was freed and the page reused
			// between calls.
			return r.fail(n, fmt.Errorf("vstore: blob page %d changed under the reader (chunk %d, %d bytes already read from it)", r.cur, chunk, r.off))
		}
		avail := chunk - r.off
		if int64(avail) > r.remaining {
			avail = int(r.remaining)
		}
		c := copy(p[n:], pg.data[blobDataOff+r.off:blobDataOff+r.off+avail])
		n += c
		r.off += c
		r.remaining -= int64(c)
		if r.off == chunk && r.remaining > 0 {
			r.cur = pg.Link()
			r.off = 0
		}
	}
	return n, nil
}

// fail makes err sticky. Bytes already copied by this call are returned
// first; the next call reports err.
func (r *BlobReader) fail(n int, err error) (int, error) {
	r.err = err
	if n > 0 {
		return n, nil
	}
	return 0, err
}

// readBlobChain reassembles a blob of the given total length starting at
// first. Callers hold the appropriate DB lock.
func (db *DB) readBlobChain(first PageID, length int64) ([]byte, error) {
	if length < 0 {
		return nil, fmt.Errorf("vstore: negative blob length %d", length)
	}
	out := make([]byte, length)
	r := &BlobReader{db: db, noLock: true, cur: first, remaining: length}
	if _, err := io.ReadFull(r, out); err != nil {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("vstore: read blob chain: %w", err)
	}
	return out, nil
}

// freeBlobChain returns every page of the chain to the free list.
func (db *DB) freeBlobChain(tx *Txn, first PageID) error {
	id := first
	for id != invalidPage {
		p, err := db.pager.get(id)
		if err != nil {
			return err
		}
		if p.Type() != pageTypeBlob {
			return fmt.Errorf("vstore: freeing page %d of type %d, not a blob page", id, p.Type())
		}
		next := p.Link() // read before freePage zeroes the page
		if err := db.freePage(tx, p); err != nil {
			return err
		}
		id = next
	}
	return nil
}
