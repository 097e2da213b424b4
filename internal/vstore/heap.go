package vstore

import "fmt"

// Record IDs pack (page, slot) into a uint64 so they fit B+tree values.
func makeRID(page PageID, slot int) uint64 {
	return uint64(page)<<16 | uint64(uint16(slot))
}

func splitRID(rid uint64) (PageID, int) {
	return PageID(rid >> 16), int(uint16(rid))
}

// heapInsert stores a record, preferring the table's current tail page and
// allocating a fresh one when it is full. Space freed by deletes on older
// pages is reclaimed only when a page empties completely (it then returns
// to the DB free list) — the usual insert-at-tail heap trade-off.
func (t *Table) heapInsert(tx *Txn, rec []byte) (uint64, error) {
	if len(rec) > maxRecordSize {
		return 0, fmt.Errorf("vstore: record of %d bytes exceeds page capacity (store large values in BLOB columns)", len(rec))
	}
	if t.meta.LastHeap != invalidPage {
		p, err := t.db.pager.get(t.meta.LastHeap)
		if err != nil {
			return 0, err
		}
		if p.Type() == pageTypeHeap && p.slottedSane() && p.slottedFree() >= len(rec) {
			tx.touch(p)
			slot, err := p.slottedInsert(rec)
			if err == nil {
				return makeRID(p.id, slot), nil
			}
		}
	}
	p, err := t.db.allocPage(tx)
	if err != nil {
		return 0, err
	}
	initSlotted(p)
	slot, err := p.slottedInsert(rec)
	if err != nil {
		return 0, err
	}
	t.meta.LastHeap = p.id
	if err := t.db.persistCatalog(tx); err != nil {
		return 0, err
	}
	return makeRID(p.id, slot), nil
}

// heapGet returns a copy of the record bytes at rid.
func (t *Table) heapGet(rid uint64) ([]byte, error) {
	rec, err := t.heapView(rid)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// heapView returns the record bytes at rid in place on their page, valid
// only while the caller holds the DB lock.
func (t *Table) heapView(rid uint64) ([]byte, error) {
	pid, slot := splitRID(rid)
	p, err := t.db.pager.get(pid)
	if err != nil {
		return nil, err
	}
	if p.Type() != pageTypeHeap {
		return nil, fmt.Errorf("vstore: rid %d/%d points at non-heap page", pid, slot)
	}
	return p.slottedGet(slot)
}

// heapUpdate rewrites the record, in place when it fits, otherwise moving
// it (possibly to another page) and returning the new rid.
func (t *Table) heapUpdate(tx *Txn, rid uint64, rec []byte) (uint64, error) {
	pid, slot := splitRID(rid)
	p, err := t.db.pager.get(pid)
	if err != nil {
		return 0, err
	}
	if _, err := p.slottedGet(slot); err != nil {
		return 0, fmt.Errorf("vstore: update: %w", err)
	}
	off, oldLen := p.slot(slot)
	tx.touch(p)
	if len(rec) <= oldLen {
		copy(p.data[off:], rec)
		p.setSlot(slot, off, len(rec))
		return rid, nil
	}
	// Try relocation within the same page first, then fall back to a
	// fresh insert elsewhere.
	if _, err := p.slottedDelete(slot); err != nil {
		return 0, err
	}
	if p.slottedFree() >= len(rec) {
		if newSlot, err := p.slottedInsert(rec); err == nil {
			return makeRID(p.id, newSlot), nil
		}
	}
	newRID, err := t.heapInsert(tx, rec)
	if err != nil {
		return 0, err
	}
	// The old page may now be empty.
	if err := t.maybeFreeHeapPage(tx, p); err != nil {
		return 0, err
	}
	return newRID, nil
}

// heapDelete tombstones the record and frees the page if it empties.
func (t *Table) heapDelete(tx *Txn, rid uint64) error {
	pid, slot := splitRID(rid)
	p, err := t.db.pager.get(pid)
	if err != nil {
		return err
	}
	tx.touch(p)
	empty, err := p.slottedDelete(slot)
	if err != nil {
		return err
	}
	if empty {
		return t.maybeFreeHeapPage(tx, p)
	}
	return nil
}

// maybeFreeHeapPage returns a fully-dead heap page to the free list,
// clearing the table's tail pointer if it pointed there.
func (t *Table) maybeFreeHeapPage(tx *Txn, p *Page) error {
	for i := 0; i < p.nSlots(); i++ {
		if _, l := p.slot(i); l != slotDead {
			return nil
		}
	}
	if t.meta.LastHeap == p.id {
		t.meta.LastHeap = invalidPage
		if err := t.db.persistCatalog(tx); err != nil {
			return err
		}
	}
	return t.db.freePage(tx, p)
}
