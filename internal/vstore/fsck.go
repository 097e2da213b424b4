package vstore

import (
	"encoding/binary"
	"fmt"
)

// CheckReport is the result of an offline integrity walk.
type CheckReport struct {
	Pages    int      // pages in the data file, including meta page 0
	Tables   int      // catalogued tables visited
	Rows     int      // live rows decoded
	Problems []string // human-readable corruption findings; empty = clean
}

// Clean reports whether the walk found no corruption.
func (r *CheckReport) Clean() bool { return len(r.Problems) == 0 }

// Check walks the whole database — meta page, free list, catalog blob,
// every table's heap rows, primary-key B+tree invariants and blob chains
// (CRC-32C verified) — and reports every inconsistency it can find without
// mutating anything. Orphan pages are deliberately not findings: crash
// garbage from aborted or power-cut transactions stays unreachable until
// free-list reuse, and so do the pages of the secondary (MIN, MAX) index
// that files written by older versions still carry. A page claimed by two
// distinct owners, however, is corruption.
//
// Check takes the read lock, so it can run against a live DB; `cbvrctl
// fsck` runs it against a freshly opened (and therefore just-recovered)
// file.
func Check(db *DB) (*CheckReport, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	c := &checker{
		db:       db,
		owners:   make(map[PageID]string),
		heapRefs: make(map[PageID]map[int]struct{}),
		report:   &CheckReport{Pages: int(db.pager.pageCount)},
	}
	c.run()
	return c.report, nil
}

type checker struct {
	db       *DB
	owners   map[PageID]string
	heapRefs map[PageID]map[int]struct{} // heap page -> slots referenced by pk entries
	report   *CheckReport
}

func (c *checker) problemf(format string, args ...any) {
	c.report.Problems = append(c.report.Problems, fmt.Sprintf(format, args...))
}

// claim records page ownership; a second distinct owner is corruption.
// It reports whether the claim succeeded (callers stop walking a structure
// when it did not, which also terminates link cycles).
func (c *checker) claim(id PageID, owner string) bool {
	if prev, ok := c.owners[id]; ok {
		if prev != owner {
			c.problemf("page %d claimed by both %s and %s", id, prev, owner)
		} else {
			c.problemf("page %d reached twice via %s (cycle or duplicate link)", id, owner)
		}
		return false
	}
	c.owners[id] = owner
	return true
}

func (c *checker) page(id PageID, owner string) *Page {
	if id >= c.db.pager.pageCount {
		c.problemf("%s references page %d beyond file end (%d pages)", owner, id, c.db.pager.pageCount)
		return nil
	}
	p, err := c.db.pager.get(id)
	if err != nil {
		c.problemf("%s: reading page %d: %v", owner, id, err)
		return nil
	}
	return p
}

func (c *checker) run() {
	meta := c.page(0, "meta")
	if meta == nil {
		return
	}
	c.claim(0, "meta")
	if meta.Type() != pageTypeMeta {
		c.problemf("meta page has type %d", meta.Type())
	}
	if binary.BigEndian.Uint32(meta.data[offMetaMagic:]) != metaMagic {
		c.problemf("meta page magic mismatch")
	}
	if v := binary.BigEndian.Uint32(meta.data[offMetaVersion:]); v != metaVersion {
		c.problemf("meta page format version %d, want %d", v, metaVersion)
	}

	c.checkFreeList(PageID(binary.BigEndian.Uint32(meta.data[offMetaFree:])))

	if catPage := PageID(binary.BigEndian.Uint32(meta.data[offMetaCatalog:])); catPage != invalidPage {
		catLen := int64(binary.BigEndian.Uint64(meta.data[offMetaCatLen:]))
		c.checkBlobChain(catPage, catLen, "catalog blob")
	}

	for name, tm := range c.db.catalog.Tables {
		c.report.Tables++
		c.checkTable(name, tm)
	}

	// Every live heap record must be reachable from exactly one pk entry;
	// a surplus means a key vanished while its record survived (or vice
	// versa after a partial delete).
	for pid, slots := range c.heapRefs {
		p := c.page(pid, "heap accounting")
		if p == nil {
			continue
		}
		live := 0
		for i := 0; i < p.nSlots(); i++ {
			if _, l := p.slot(i); l != slotDead {
				live++
			}
		}
		if live != len(slots) {
			c.problemf("heap page %d holds %d live records but %d are referenced by keys", pid, live, len(slots))
		}
	}
}

func (c *checker) checkFreeList(head PageID) {
	id := head
	for n := 0; id != invalidPage; n++ {
		if n > int(c.db.pager.pageCount) {
			c.problemf("free list longer than the file (%d pages): broken link", c.db.pager.pageCount)
			return
		}
		if !c.claim(id, "free list") {
			return
		}
		p := c.page(id, "free list")
		if p == nil {
			return
		}
		if p.Type() != pageTypeFree {
			c.problemf("free-list page %d has type %d, want free", id, p.Type())
		}
		id = p.Link()
	}
}

// checkBlobChain verifies page types, chunk bounds, per-page CRC-32C and
// total length of one chain.
func (c *checker) checkBlobChain(first PageID, length int64, owner string) {
	id := first
	remaining := length
	for {
		if id == invalidPage {
			if remaining > 0 {
				c.problemf("%s: chain ends with %d bytes unaccounted", owner, remaining)
			}
			return
		}
		if !c.claim(id, owner) {
			return
		}
		p := c.page(id, owner)
		if p == nil {
			return
		}
		if p.Type() != pageTypeBlob {
			c.problemf("%s: page %d has type %d, want blob", owner, id, p.Type())
			return
		}
		chunk := int(getU16(p.data[offBlobLen:]))
		if chunk > blobChunkMax {
			c.problemf("%s: page %d chunk %d exceeds capacity", owner, id, chunk)
			return
		}
		if want := binary.BigEndian.Uint32(p.data[offBlobCRC:]); want != blobPageCRC(p) {
			c.problemf("%s: page %d CRC mismatch", owner, id)
		}
		if int64(chunk) > remaining {
			c.problemf("%s: page %d carries %d bytes past the declared length", owner, id, int64(chunk)-remaining)
			return
		}
		remaining -= int64(chunk)
		if remaining == 0 {
			return
		}
		if chunk == 0 {
			c.problemf("%s: page %d has empty chunk mid-chain", owner, id)
			return
		}
		id = p.Link()
	}
}

func (c *checker) checkTable(name string, tm *tableMeta) {
	owner := "table " + name
	if tm.PKRoot != invalidPage {
		entries, leaves := c.checkBTree(tm.PKRoot, owner+" pk btree")
		c.checkLeafChain(leaves, owner+" pk btree")
		for _, e := range entries {
			c.checkRow(name, tm, int64(e.key), e.val)
		}
	}
}

type btEntry struct {
	key uint64
	val uint64
}

// checkBTree walks a B+tree recursively, verifying node types, in-bounds
// children, raw key counts and global key ordering. It returns every live
// leaf entry in key order plus the leaf pages in traversal order.
func (c *checker) checkBTree(root PageID, owner string) ([]btEntry, []*Page) {
	var entries []btEntry
	var leaves []*Page
	var last *uint64
	var walk func(id PageID, depth int)
	walk = func(id PageID, depth int) {
		if depth > 32 {
			c.problemf("%s: deeper than 32 levels at page %d (cycle?)", owner, id)
			return
		}
		if !c.claim(id, owner) {
			return
		}
		p := c.page(id, owner)
		if p == nil {
			return
		}
		switch p.Type() {
		case pageTypeLeaf:
			leaves = append(leaves, p)
			raw := int(getU16(p.data[offBTNKeys:]))
			if raw > leafMaxKeys {
				c.problemf("%s: leaf %d declares %d keys, max %d", owner, id, raw, leafMaxKeys)
			}
			n := btNKeys(p)
			for i := 0; i < n; i++ {
				k := leafKey(p, i)
				if last != nil && k <= *last {
					c.problemf("%s: leaf %d key[%d]=%d out of order (prev %d)", owner, id, i, k, *last)
				}
				kk := k
				last = &kk
				entries = append(entries, btEntry{key: k, val: leafVal(p, i)})
			}
		case pageTypeInternal:
			raw := int(getU16(p.data[offBTNKeys:]))
			if raw > intMaxKeys {
				c.problemf("%s: internal %d declares %d keys, max %d", owner, id, raw, intMaxKeys)
			}
			n := btNKeys(p)
			for i := 0; i <= n; i++ {
				walk(intChild(p, i), depth+1)
				if i < n {
					k := intKey(p, i)
					// Separator k: the subtree just walked holds keys < k,
					// the next subtree keys >= k. The global `last` cursor
					// checks leaf ordering; here verify the separator is
					// not behind it.
					if last != nil && k < *last {
						c.problemf("%s: internal %d separator[%d]=%d behind max leaf key %d", owner, id, i, k, *last)
					}
				}
			}
		default:
			c.problemf("%s: page %d has type %d, want leaf/internal", owner, id, p.Type())
		}
	}
	walk(root, 0)
	return entries, leaves
}

// checkLeafChain verifies the rightward sibling links match traversal
// order.
func (c *checker) checkLeafChain(leaves []*Page, owner string) {
	for i, p := range leaves {
		want := invalidPage
		if i+1 < len(leaves) {
			want = leaves[i+1].id
		}
		if got := p.Link(); got != want {
			c.problemf("%s: leaf %d sibling link %d, want %d", owner, p.id, got, want)
		}
	}
}

// checkRow resolves one pk btree entry to its heap record, decodes the row
// and walks every out-of-row chain it references.
func (c *checker) checkRow(name string, tm *tableMeta, pk int64, rid uint64) {
	owner := "table " + name + " heap"
	pid, slot := splitRID(rid)
	// Heap pages hold many rows; claim once for the table.
	if prev, ok := c.owners[pid]; !ok {
		c.owners[pid] = owner
	} else if prev != owner {
		c.problemf("page %d claimed by both %s and %s", pid, prev, owner)
		return
	}
	p := c.page(pid, owner)
	if p == nil {
		return
	}
	if p.Type() != pageTypeHeap {
		c.problemf("%s: rid for pk %d points at page %d of type %d", owner, pk, pid, p.Type())
		return
	}
	if !p.slottedSane() {
		c.problemf("%s: page %d fails slotted sanity", owner, pid)
		return
	}
	refs := c.heapRefs[pid]
	if refs == nil {
		refs = make(map[int]struct{})
		c.heapRefs[pid] = refs
	}
	if _, dup := refs[slot]; dup {
		c.problemf("%s: slot %d on page %d referenced by two keys", owner, slot, pid)
	}
	refs[slot] = struct{}{}
	rec, err := p.slottedGet(slot)
	if err != nil {
		c.problemf("%s: pk %d: %v", owner, pk, err)
		return
	}
	row, err := decodeRow(&tm.Schema, rec)
	if err != nil {
		c.problemf("%s: pk %d: %v", owner, pk, err)
		return
	}
	if len(row) > 0 && (row[0].Null || row[0].Int != pk) {
		c.problemf("%s: pk %d: stored key column disagrees (%v)", owner, pk, row[0])
	}
	c.report.Rows++
	for i, v := range row {
		if v.Null {
			continue
		}
		isChain := v.Type == TypeBlob || (v.Type == TypeText && v.overflowText)
		if !isChain || v.Blob.IsZero() {
			continue
		}
		chainOwner := fmt.Sprintf("table %s pk %d col %s", name, pk, tm.Schema.Cols[i].Name)
		c.checkBlobChain(v.Blob.First, v.Blob.Len, chainOwner)
	}
}
