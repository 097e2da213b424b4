package vstore

import (
	"container/list"
	"fmt"
	"sync"
)

// DefaultCachePages is the default buffer-pool capacity.
const DefaultCachePages = 1024

// pager manages the data file and the buffer pool. Page *contents* are
// protected by the DB's RWMutex (writers are exclusive); the buffer-pool
// bookkeeping (cache map, LRU list, dirty flags) is additionally guarded
// by its own mutex because concurrent readers both touch the LRU.
type pager struct {
	f File

	mu        sync.Mutex
	pageCount PageID // pages in the file (including meta page 0)
	cacheCap  int
	cache     map[PageID]*list.Element // -> *Page
	lru       *list.List               // front = most recently used
}

func openPager(fs VFS, path string, cacheCap int) (*pager, error) {
	if cacheCap <= 0 {
		cacheCap = DefaultCachePages
	}
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("vstore: open data file: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		_ = f.Close() //cbvrvet:ignore errvet open already failed
		return nil, fmt.Errorf("vstore: stat data file: %w", err)
	}
	if size == 0 {
		// Freshly created (or empty): make the directory entry durable so
		// the file cannot vanish on power loss after its contents are
		// fsynced.
		if err := fs.SyncDir(path); err != nil {
			_ = f.Close() //cbvrvet:ignore errvet open already failed
			return nil, err
		}
	}
	if rem := size % PageSize; rem != 0 {
		// A torn tail extension (e.g. ENOSPC or power loss mid-WriteAt
		// while the file was being grown). The partial page can never be
		// referenced: pages become reachable only after their full image
		// is committed through the WAL, and replay re-extends the file as
		// needed. Salvage by truncating back to the page boundary.
		size -= rem
		if err := f.Truncate(size); err != nil {
			_ = f.Close() //cbvrvet:ignore errvet open already failed
			return nil, fmt.Errorf("vstore: truncate torn data file tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() //cbvrvet:ignore errvet open already failed
			return nil, fmt.Errorf("vstore: sync after tail salvage: %w", err)
		}
	}
	return &pager{
		f:         f,
		pageCount: PageID(size / PageSize),
		cacheCap:  cacheCap,
		cache:     make(map[PageID]*list.Element),
		lru:       list.New(),
	}, nil
}

func (pg *pager) close() error {
	if pg.f == nil {
		return nil
	}
	err := pg.f.Close()
	pg.f = nil
	return err
}

// get returns the page, reading it from disk on a cache miss. The page
// stays valid until evicted; callers holding pages across eviction points
// must pin them.
func (pg *pager) get(id PageID) (*Page, error) { return pg.getInto(id, nil) }

// getInto is get, except that a non-nil scratch takes a miss: the page is
// read into it and never enters the buffer pool, so a streaming blob read
// neither allocates nor evicts a page per page it reads. A page absent
// from the pool is current on disk (dirty pages are written before they
// are evicted), and a resident one is returned as get returns it.
func (pg *pager) getInto(id PageID, scratch *Page) (*Page, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if el, ok := pg.cache[id]; ok {
		pg.lru.MoveToFront(el)
		return el.Value.(*Page), nil
	}
	if id >= pg.pageCount {
		return nil, fmt.Errorf("vstore: page %d beyond file end (%d pages)", id, pg.pageCount)
	}
	if pg.f == nil {
		return nil, fmt.Errorf("vstore: read page %d: %w", id, ErrClosed)
	}
	p := scratch
	if p == nil {
		p = &Page{data: make([]byte, PageSize)}
	}
	p.id = id
	if _, err := pg.f.ReadAt(p.data, int64(id)*PageSize); err != nil {
		return nil, fmt.Errorf("vstore: read page %d: %w", id, err)
	}
	if scratch == nil {
		pg.insertCache(p)
	}
	return p, nil
}

// cached returns the page if it is resident in the buffer pool, without
// touching disk or the LRU order.
func (pg *pager) cached(id PageID) *Page {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if el, ok := pg.cache[id]; ok {
		return el.Value.(*Page)
	}
	return nil
}

// allocate extends the file (or reuses nothing — free-list reuse is the
// DB's job) and returns a zeroed in-cache page.
func (pg *pager) allocate() (*Page, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	id := pg.pageCount
	pg.pageCount++
	p := &Page{id: id, data: make([]byte, PageSize), dirty: true}
	if err := pg.writePage(p); err != nil {
		return nil, err
	}
	pg.insertCache(p)
	return p, nil
}

func (pg *pager) insertCache(p *Page) {
	el := pg.lru.PushFront(p)
	pg.cache[p.id] = el
	for pg.lru.Len() > pg.cacheCap {
		back := pg.lru.Back()
		victim := back.Value.(*Page)
		if victim.pins > 0 {
			// Move a pinned victim to the front and stop evicting this
			// round; with sane cache sizes pins are transient.
			pg.lru.MoveToFront(back)
			break
		}
		if victim.dirty {
			// WAL-before-data is guaranteed by the commit protocol: all
			// dirty pages were logged and the WAL synced at commit time.
			if err := pg.writePage(victim); err != nil {
				// Keep the page cached rather than lose the write.
				pg.lru.MoveToFront(back)
				break
			}
		}
		pg.lru.Remove(back)
		delete(pg.cache, victim.id)
	}
}

// extendDetached reserves a fresh page id at the end of the file without
// touching the buffer pool or the free list. Staged blob writers running
// outside the DB writer lock use it: the caller owns the page image
// privately (the page is never inserted into the cache, so concurrent
// staging cannot evict pages a transaction holds pointers to) and persists
// it with writeDetached once sealed.
func (pg *pager) extendDetached() PageID {
	pg.mu.Lock()
	id := pg.pageCount
	pg.pageCount++
	pg.mu.Unlock()
	return id
}

// writeDetached writes a detached (staged) page image at its slot.
// File.WriteAt is safe for concurrent use and detached pages are
// invisible to the buffer pool, so no bookkeeping lock is needed; distinct
// stagers always write distinct slots.
func (pg *pager) writeDetached(p *Page) error {
	f := pg.f
	if f == nil {
		return fmt.Errorf("vstore: write staged page %d: %w", p.id, ErrClosed)
	}
	if _, err := f.WriteAt(p.data, int64(p.id)*PageSize); err != nil {
		return fmt.Errorf("vstore: write staged page %d: %w", p.id, err)
	}
	return nil
}

// writePage writes the page image at its slot and clears the dirty flag.
func (pg *pager) writePage(p *Page) error {
	if pg.f == nil {
		return fmt.Errorf("vstore: write page %d: %w", p.id, ErrClosed)
	}
	if _, err := pg.f.WriteAt(p.data, int64(p.id)*PageSize); err != nil {
		return fmt.Errorf("vstore: write page %d: %w", p.id, err)
	}
	p.dirty = false
	return nil
}

// flushAll writes every dirty cached page and fsyncs the data file.
func (pg *pager) flushAll() error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	for el := pg.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*Page)
		if p.dirty {
			if err := pg.writePage(p); err != nil {
				return err
			}
		}
	}
	if err := pg.f.Sync(); err != nil {
		return fmt.Errorf("vstore: sync data file: %w", err)
	}
	return nil
}

// writeRaw writes an arbitrary page image directly to the file, extending
// it if needed (recovery path; the cache must be cold).
func (pg *pager) writeRaw(id PageID, image []byte) error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if len(image) != PageSize {
		return fmt.Errorf("vstore: raw image wrong size %d", len(image))
	}
	if _, err := pg.f.WriteAt(image, int64(id)*PageSize); err != nil {
		return fmt.Errorf("vstore: recover page %d: %w", id, err)
	}
	if id >= pg.pageCount {
		pg.pageCount = id + 1
	}
	return nil
}
