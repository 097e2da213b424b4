// Columnar descriptor arenas: the storage layout behind the batched
// search scan. Each cache shard owns one shardArena that packs its
// entries' descriptors into per-kind contiguous float64 columns (fixed
// stride per kind, see features.Stride), plus the slot bookkeeping that
// keeps the arena incremental under ingest / delete / reindex churn — a
// mutation repacks exactly one row, never the column.
//
// Concurrency contract: all mutating methods (insert, remove, repack)
// require the engine write lock; readers (live, row, present) require at
// least the read lock. Search code may alias live and column rows only
// while the read lock is held — column backing arrays move when an
// insert grows them.
package core

import (
	"fmt"

	"cbvr/internal/features"
	"cbvr/internal/rangeindex"
)

// noSlot marks an entry not (or no longer) packed into an arena.
const noSlot = -1

// shardArena is one shard's packed descriptor store. A slot is one
// candidate row across all kind columns; freed slots are recycled so
// churn does not grow the columns without bound.
type shardArena struct {
	// cols[k] holds slot s's packed vector of kind k at
	// [s*stride : (s+1)*stride), stride = features.Stride(k).
	cols [features.NumKinds][]float64
	// present[k][s] reports whether live slot s actually stores a kind-k
	// descriptor (stored rows can lack feature strings); missing[k]
	// counts live slots with present false, so the common all-present
	// scan skips the per-row flag sweep entirely.
	present [features.NumKinds][]bool
	missing [features.NumKinds]int

	// bucket[s] is live slot s's §4.2 range bucket — the column the
	// search-time range prune sweeps; the zero Range while free.
	bucket []rangeindex.Range

	ents []*frameEntry // slot -> owning entry; nil while free
	// ids[s] is live slot s's key-frame ID (0 while free): the tie-break
	// column of the traversal's (distance, ID) order, read without
	// chasing ents.
	ids  []int64
	live []int32 // live slots, arbitrary order (swap-removed)
	pos  []int32 // slot -> index into live; noSlot while free
	free []int32 // recyclable slots

	scratch []float64 // pack staging, reused across mutations
}

func newShardArena() *shardArena { return &shardArena{} }

// insert packs an entry's descriptor set into a fresh or recycled slot and
// marks it live. The entry's slot field is set; the arena keeps no
// reference to set.
func (a *shardArena) insert(en *frameEntry, set *features.Set) {
	var slot int32
	if n := len(a.free); n > 0 {
		slot = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		slot = int32(len(a.ents))
		a.ents = append(a.ents, nil)
		a.ids = append(a.ids, 0)
		a.pos = append(a.pos, noSlot)
		a.bucket = append(a.bucket, rangeindex.Range{})
		for k := range a.cols {
			stride := features.Stride(features.Kind(k))
			a.cols[k] = append(a.cols[k], make([]float64, stride)...)
			a.present[k] = append(a.present[k], false)
		}
	}
	a.ents[slot] = en
	a.ids[slot] = en.id
	en.slot = slot
	a.pos[slot] = int32(len(a.live))
	a.live = append(a.live, slot)
	// A fresh or recycled slot always has all-false present flags (see
	// remove); count it missing everywhere, then let repack reconcile.
	for k := range a.missing {
		a.missing[k]++
	}
	a.repack(en, set)
}

// repack overwrites a live slot's column rows from a descriptor set and
// the entry's bucket, maintaining the present flags and missing counts.
// It is the incremental path reindex swaps take: one row rewritten in
// place, no column rebuild.
func (a *shardArena) repack(en *frameEntry, set *features.Set) {
	slot := en.slot
	a.bucket[slot] = en.bucket
	for k := range a.cols {
		kind := features.Kind(k)
		stride := features.Stride(kind)
		row := a.cols[k][int(slot)*stride : (int(slot)+1)*stride]
		d := set.Get(kind)
		if d == nil {
			if a.present[k][slot] {
				a.present[k][slot] = false
				a.missing[k]++
			}
			for i := range row {
				row[i] = 0
			}
			continue
		}
		a.scratch = d.AppendTo(a.scratch[:0])
		if len(a.scratch) != stride {
			panic(fmt.Sprintf("core: %v AppendTo emitted %d values, stride is %d", kind, len(a.scratch), stride))
		}
		copy(row, a.scratch)
		if !a.present[k][slot] {
			a.present[k][slot] = true
			a.missing[k]--
		}
	}
}

// remove retires an entry's slot: swap-removed from the live list,
// bucket and present flags cleared (so a recycled slot starts from a
// known state) and the slot pushed onto the free list.
func (a *shardArena) remove(en *frameEntry) {
	slot := en.slot
	if slot == noSlot || int(slot) >= len(a.pos) || a.ents[slot] != en {
		panic(fmt.Sprintf("core: arena remove of unpacked entry %d", en.id))
	}
	li := a.pos[slot]
	last := len(a.live) - 1
	moved := a.live[last]
	a.live[li] = moved
	a.pos[moved] = li
	a.live = a.live[:last]
	a.pos[slot] = noSlot
	a.ents[slot] = nil
	a.ids[slot] = 0
	a.bucket[slot] = rangeindex.Range{}
	for k := range a.present {
		if a.present[k][slot] {
			a.present[k][slot] = false
		} else {
			a.missing[k]--
		}
	}
	a.free = append(a.free, slot)
	en.slot = noSlot
}

// row returns slot's packed vector of the given kind (full capacity
// capped, so kernels cannot scribble past the row).
func (a *shardArena) row(kind features.Kind, slot int32) []float64 {
	stride := features.Stride(kind)
	off := int(slot) * stride
	return a.cols[kind][off : off+stride : off+stride]
}

// hasKind reports whether slot stores a descriptor of the kind.
func (a *shardArena) hasKind(kind features.Kind, slot int32) bool {
	return a.present[kind][slot]
}

// countOverlapping is the §4.2 range prune as a count: the number of live
// rows whose bucket overlaps the query's.
func (a *shardArena) countOverlapping(q rangeindex.Range) int {
	n := 0
	for _, s := range a.live {
		if a.bucket[s].Overlaps(q) {
			n++
		}
	}
	return n
}

// overlapping appends to dst those of slots whose bucket overlaps the
// query's, in slots order.
func (a *shardArena) overlapping(dst, slots []int32, q rangeindex.Range) []int32 {
	for _, s := range slots {
		if a.bucket[s].Overlaps(q) {
			dst = append(dst, s)
		}
	}
	return dst
}

// distances is the one kernel entry point of every scan: out[i] becomes
// the kind's distance from the packed query vector to row rows[i], with
// rows that store no descriptor of the kind ranked last.
//
//cbvrvet:noalloc
func (a *shardArena) distances(kind features.Kind, qv []float64, rows []int32, out []float64) {
	features.BatchDistance(kind, qv, a.cols[kind], rows, out)
	if a.missing[kind] > 0 {
		pres := a.present[kind]
		for i, s := range rows {
			if !pres[s] {
				out[i] = missingDistance
			}
		}
	}
}
