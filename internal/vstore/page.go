// Package vstore is an embedded, single-file storage engine: slotted
// pages, a buffer pool, a redo write-ahead log with crash recovery, B+tree
// indexes, chunked BLOB storage and typed heap tables with transactions.
//
// It substitutes for the Oracle 9i instance the paper stores its
// VIDEO_STORE and KEY_FRAMES tables in: the CBVR system needs row CRUD by
// primary key, BLOB columns for video containers and key-frame JPEGs, and
// VARCHAR-style feature strings — all of which this engine provides with
// real database mechanics (WAL-before-data, page-image redo recovery,
// free-list page reuse).
//
// Concurrency model: single writer, many readers (one RWMutex per DB).
// That matches the paper's workload — one administrator mutating the
// corpus, many users running read-only searches.
package vstore

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed on-disk page size.
const PageSize = 4096

// PageID addresses a page within the database file; page 0 is the meta
// page.
type PageID uint32

// invalidPage marks "no page" in chain pointers.
const invalidPage PageID = 0

// Page types stored in the common header.
const (
	pageTypeMeta uint8 = iota
	pageTypeHeap
	pageTypeLeaf
	pageTypeInternal
	pageTypeBlob
	pageTypeFree
)

// Common page header layout (16 bytes):
//
//	[0:8)   pageLSN  — LSN of the last WAL record covering this page
//	[8]     type
//	[9]     flags (unused)
//	[10:14) link     — type-specific chain pointer (free list, blob chain,
//	                   leaf sibling)
//	[14:16) reserved
const (
	offLSN    = 0
	offType   = 8
	offLink   = 10
	hdrCommon = 16
)

// Page is an in-memory copy of one on-disk page, tracked by the buffer
// pool.
type Page struct {
	id    PageID
	data  []byte // len == PageSize
	dirty bool
	pins  int
}

// ID returns the page's address.
func (p *Page) ID() PageID { return p.id }

// MarkDirty flags the page for write-back.
func (p *Page) MarkDirty() { p.dirty = true }

// Type returns the page type byte.
func (p *Page) Type() uint8 { return p.data[offType] }

// SetType sets the page type byte.
func (p *Page) SetType(t uint8) { p.data[offType] = t }

// SetLSN stores the page's last-writer LSN.
func (p *Page) SetLSN(lsn uint64) { binary.BigEndian.PutUint64(p.data[offLSN:], lsn) }

// Link returns the type-specific chain pointer.
func (p *Page) Link() PageID { return PageID(binary.BigEndian.Uint32(p.data[offLink:])) }

// SetLink stores the type-specific chain pointer.
func (p *Page) SetLink(id PageID) { binary.BigEndian.PutUint32(p.data[offLink:], uint32(id)) }

// Slotted page layout (heap pages), after the common header:
//
//	[16:18) nslots
//	[18:20) freeStart — first byte of the unused gap (grows up)
//	[20:22) freeEnd   — first byte of the record area (grows down)
//	[22:…)  slot directory, 4 bytes per slot: offset u16, length u16
//
// A slot with length == slotDead is a tombstone.
const (
	offNSlots    = hdrCommon
	offFreeStart = hdrCommon + 2
	offFreeEnd   = hdrCommon + 4
	offSlots     = hdrCommon + 6
	slotSize     = 4
	slotDead     = 0xffff
)

// maxRecordSize is the largest record a single slotted page can hold.
const maxRecordSize = PageSize - offSlots - slotSize

// maxSlots bounds the slot directory: more entries than this cannot fit in
// a page, so a larger on-page count is corruption.
const maxSlots = (PageSize - offSlots) / slotSize

// initSlotted formats a page as an empty slotted heap page.
func initSlotted(p *Page) {
	p.SetType(pageTypeHeap)
	p.setNSlots(0)
	p.setFreeStart(offSlots)
	p.setFreeEnd(PageSize)
}

// nSlots returns the slot-directory size, clamped to what a page can
// physically hold so a corrupt on-disk count can never push the directory
// accessors out of the page (fuzzed / corrupt pages must surface errors,
// not panics).
func (p *Page) nSlots() int {
	n := int(binary.BigEndian.Uint16(p.data[offNSlots:]))
	if n > maxSlots {
		return maxSlots
	}
	return n
}
func (p *Page) setNSlots(n int)    { binary.BigEndian.PutUint16(p.data[offNSlots:], uint16(n)) }
func (p *Page) freeStart() int     { return int(binary.BigEndian.Uint16(p.data[offFreeStart:])) }
func (p *Page) setFreeStart(v int) { binary.BigEndian.PutUint16(p.data[offFreeStart:], uint16(v)) }
func (p *Page) freeEnd() int       { return int(binary.BigEndian.Uint16(p.data[offFreeEnd:])) }
func (p *Page) setFreeEnd(v int)   { binary.BigEndian.PutUint16(p.data[offFreeEnd:], uint16(v)) }

func (p *Page) slot(i int) (off, length int) {
	base := offSlots + i*slotSize
	return int(binary.BigEndian.Uint16(p.data[base:])), int(binary.BigEndian.Uint16(p.data[base+2:]))
}

func (p *Page) setSlot(i, off, length int) {
	base := offSlots + i*slotSize
	binary.BigEndian.PutUint16(p.data[base:], uint16(off))
	binary.BigEndian.PutUint16(p.data[base+2:], uint16(length))
}

// slottedSane reports whether the page's free-space bookkeeping is
// internally consistent; insert paths fall back to a fresh page when a
// (corrupt) tail page fails the check instead of slicing out of bounds.
func (p *Page) slottedSane() bool {
	fs, fe := p.freeStart(), p.freeEnd()
	return fs >= offSlots+p.nSlots()*slotSize && fs <= fe && fe <= PageSize
}

// slottedFree reports the bytes available for one more record (accounting
// for a possible new slot entry).
func (p *Page) slottedFree() int {
	free := p.freeEnd() - p.freeStart() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// slottedInsert places rec in the page and returns its slot number. The
// caller must have verified capacity via slottedFree. Dead slots are
// reused.
func (p *Page) slottedInsert(rec []byte) (int, error) {
	n := len(rec)
	if n > maxRecordSize {
		return 0, fmt.Errorf("vstore: record of %d bytes exceeds page capacity", n)
	}
	// Reuse a dead slot if one exists.
	slotNo := -1
	for i := 0; i < p.nSlots(); i++ {
		if _, l := p.slot(i); l == slotDead {
			slotNo = i
			break
		}
	}
	needSlot := 0
	if slotNo < 0 {
		needSlot = slotSize
	}
	if p.freeEnd()-p.freeStart()-needSlot < n {
		if p.compact()-needSlot < n { // still too tight after compaction
			return 0, fmt.Errorf("vstore: page %d full", p.id)
		}
	}
	off := p.freeEnd() - n
	copy(p.data[off:], rec)
	p.setFreeEnd(off)
	if slotNo < 0 {
		slotNo = p.nSlots()
		p.setNSlots(slotNo + 1)
		p.setFreeStart(offSlots + p.nSlots()*slotSize)
	}
	p.setSlot(slotNo, off, n)
	return slotNo, nil
}

// slottedGet returns the record bytes at slot i (aliased into the page).
// Offsets and lengths come from disk, so they are validated against the
// page bounds before slicing — a corrupt page yields an error, not a
// panic.
func (p *Page) slottedGet(i int) ([]byte, error) {
	if i < 0 || i >= p.nSlots() {
		return nil, fmt.Errorf("vstore: slot %d out of range on page %d", i, p.id)
	}
	off, l := p.slot(i)
	if l == slotDead {
		return nil, fmt.Errorf("vstore: slot %d on page %d is dead", i, p.id)
	}
	if off < offSlots || off+l > PageSize {
		return nil, fmt.Errorf("vstore: slot %d on page %d points outside the page (off=%d len=%d)", i, p.id, off, l)
	}
	return p.data[off : off+l], nil
}

// slottedDelete tombstones slot i. It reports whether the page is now
// empty of live records.
func (p *Page) slottedDelete(i int) (empty bool, err error) {
	if i < 0 || i >= p.nSlots() {
		return false, fmt.Errorf("vstore: slot %d out of range on page %d", i, p.id)
	}
	if _, l := p.slot(i); l == slotDead {
		return false, fmt.Errorf("vstore: slot %d on page %d already dead", i, p.id)
	}
	p.setSlot(i, 0, slotDead)
	for s := 0; s < p.nSlots(); s++ {
		if _, l := p.slot(s); l != slotDead {
			return false, nil
		}
	}
	return true, nil
}

// compact rewrites live records contiguously at the page tail, reclaiming
// holes left by deletes and in-place shrinks. It returns the resulting
// free gap size.
func (p *Page) compact() int {
	type live struct{ slot, off, len int }
	var recs []live
	for i := 0; i < p.nSlots(); i++ {
		off, l := p.slot(i)
		if l != slotDead {
			recs = append(recs, live{i, off, l})
		}
	}
	buf := make([]byte, 0, PageSize)
	// Copy records out, then rewrite from the end of the page.
	for i := range recs {
		buf = append(buf, p.data[recs[i].off:recs[i].off+recs[i].len]...)
	}
	end := PageSize
	consumed := 0
	for i := range recs {
		end -= recs[i].len
		copy(p.data[end:], buf[consumed:consumed+recs[i].len])
		consumed += recs[i].len
		p.setSlot(recs[i].slot, end, recs[i].len)
	}
	p.setFreeEnd(end)
	return end - p.freeStart()
}
