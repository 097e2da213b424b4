package vstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Meta page layout after the common header:
//
//	[16:20) magic "VSTR"
//	[20:24) format version
//	[24:28) free-list head page
//	[28:32) catalog blob first page
//	[32:40) catalog blob length
const (
	metaMagic = 0x56535452 // "VSTR"
	// metaVersion 2: blob pages carry a CRC-32C at [18:22) and the
	// payload moved from offset 18 to 22 (see blob.go). A version-1 file
	// must be rejected here — its blob payloads would otherwise surface
	// as misleading per-page checksum mismatches.
	metaVersion = 2

	offMetaMagic   = 16
	offMetaVersion = 20
	offMetaFree    = 24
	offMetaCatalog = 28
	offMetaCatLen  = 32
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("vstore: database closed")

// ErrTxnDone is returned when a finished transaction is reused.
var ErrTxnDone = errors.New("vstore: transaction already finished")

// ErrReadOnly is returned by mutating operations once a write-path fault
// has poisoned the DB into sticky degraded read-only mode. Reads keep
// serving the last committed snapshot; mutations fail fast until the
// process restarts and recovery decides from durable state.
var ErrReadOnly = errors.New("vstore: database is degraded (read-only after write fault)")

// Options tunes a DB instance.
type Options struct {
	// CachePages bounds the buffer pool; <= 0 selects DefaultCachePages.
	CachePages int
	// NoWALSync skips fsync on commit. Crash safety is lost; useful only
	// for benchmarks isolating fsync cost.
	NoWALSync bool
	// FS substitutes the filesystem implementation; nil selects the real
	// OS filesystem. Fault-injection tests pass a faultfs.FS here.
	FS VFS
}

// Stats carries cumulative operation counters for benchmarks and tests.
type Stats struct {
	PageReads   uint64
	PageWrites  uint64
	WALRecords  uint64
	Commits     uint64
	Aborts      uint64
	Recovered   int // committed txns replayed at open
	Checkpoints uint64
}

// DB is a single-file embedded database with a write-ahead log.
//
// Lock order (enforced by tools/cbvrvet lockorder): mu is the outermost
// lock — Close takes stageMu while holding mu exclusively, and every
// pager call that touches pg.mu runs under mu. stageMu critical
// sections are counter-only bookkeeping, so no blocking or file I/O may
// run while it is held.
//
//cbvrvet:lockorder db.mu < stageMu
//cbvrvet:lockorder db.mu < pager.mu
//cbvrvet:lockorder noio stageMu
type DB struct {
	mu     sync.RWMutex
	pager  *pager
	wal    *wal
	path   string
	opts   Options
	closed bool

	catalog  catalogData
	tables   map[string]*Table
	nextTxn  uint64
	activeTx *Txn

	// stageMu guards staged-blob-writer registration (stagers,
	// stageClosed). It is deliberately separate from mu — and ordered
	// after it: Close acquires stageMu while holding mu exclusively — so
	// registering a stager never waits behind an open transaction; that
	// independence is what lets uploads stage while another client
	// commits.
	stageMu     sync.Mutex
	stagers     int
	stageClosed bool

	// degraded is set (once, sticky) by poison when a transactional
	// write-path fault leaves durability in doubt. Atomic because staged
	// writer registration and Degraded() read it outside db.mu.
	degraded atomic.Pointer[error]

	stats Stats
}

// catalogData is the persisted table registry.
type catalogData struct {
	Tables map[string]*tableMeta `json:"tables"`
}

// tableMeta is the persisted per-table state.
type tableMeta struct {
	Schema   Schema `json:"schema"`
	PKRoot   PageID `json:"pk_root"`
	LastHeap PageID `json:"last_heap"`
}

// Open opens (or creates) the database at path. The write-ahead log lives
// at path + ".wal". Crash recovery runs before any page is served.
func Open(path string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	fs := o.FS
	if fs == nil {
		fs = OSFS{}
	}
	pg, err := openPager(fs, path, o.CachePages)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(fs, path+".wal")
	if err != nil {
		_ = pg.close() //cbvrvet:ignore errvet open already failed
		return nil, err
	}
	db := &DB{
		pager:  pg,
		wal:    w,
		path:   path,
		opts:   o,
		tables: make(map[string]*Table),
	}
	if err := db.recover(); err != nil {
		_ = db.closeFiles() //cbvrvet:ignore errvet open already failed
		return nil, err
	}
	if err := db.bootstrap(); err != nil {
		_ = db.closeFiles() //cbvrvet:ignore errvet open already failed
		return nil, err
	}
	return db, nil
}

// recover replays committed transactions from the WAL into the data file,
// then truncates the log.
func (db *DB) recover() error {
	recs, err := db.wal.readAll()
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	committed := make(map[uint64]bool)
	for _, r := range recs {
		if r.kind == walKindCommit {
			committed[r.txnID] = true
		}
	}
	replayed := make(map[uint64]bool)
	for _, r := range recs {
		if r.kind != walKindPageImage || !committed[r.txnID] {
			continue
		}
		if err := db.pager.writeRaw(r.pageID, r.image); err != nil {
			return err
		}
		replayed[r.txnID] = true
	}
	if err := db.pager.f.Sync(); err != nil {
		return fmt.Errorf("vstore: sync after recovery: %w", err)
	}
	db.stats.Recovered = len(replayed)
	return db.wal.truncate()
}

// initMeta stamps a fresh (all-zero) meta page and installs an empty
// catalog. The zero page already carries type meta and empty catalog
// fields (invalidPage is 0), so only magic and version need writing.
func (db *DB) initMeta(meta *Page) error {
	meta.SetType(pageTypeMeta)
	binary.BigEndian.PutUint32(meta.data[offMetaMagic:], metaMagic)
	binary.BigEndian.PutUint32(meta.data[offMetaVersion:], metaVersion)
	meta.MarkDirty()
	db.catalog = catalogData{Tables: make(map[string]*tableMeta)}
	return db.pager.flushAll()
}

// pageIsZero reports whether the page image is entirely zero bytes.
func pageIsZero(data []byte) bool {
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

// bootstrap loads (or initialises) the meta page and catalog.
func (db *DB) bootstrap() error {
	if db.pager.pageCount == 0 {
		// Fresh database: create the meta page and an empty catalog.
		meta, err := db.pager.allocate()
		if err != nil {
			return err
		}
		return db.initMeta(meta)
	}
	meta, err := db.pager.get(0)
	if err != nil {
		return err
	}
	if binary.BigEndian.Uint32(meta.data[offMetaMagic:]) != metaMagic {
		if db.pager.pageCount == 1 && pageIsZero(meta.data) {
			// Interrupted fresh-DB bootstrap: allocate() extends the file
			// with a zero page before initMeta stamps it, so a crash
			// between the two leaves exactly one all-zero page. Recovery
			// has already run, so no committed state can reference it —
			// finish the initialisation instead of rejecting the file.
			return db.initMeta(meta)
		}
		return fmt.Errorf("vstore: %s is not a vstore database", db.path)
	}
	if v := binary.BigEndian.Uint32(meta.data[offMetaVersion:]); v != metaVersion {
		return fmt.Errorf("vstore: unsupported format version %d", v)
	}
	catPage := PageID(binary.BigEndian.Uint32(meta.data[offMetaCatalog:]))
	catLen := binary.BigEndian.Uint64(meta.data[offMetaCatLen:])
	db.catalog = catalogData{Tables: make(map[string]*tableMeta)}
	if catPage != invalidPage {
		raw, err := db.readBlobChain(catPage, int64(catLen))
		if err != nil {
			return fmt.Errorf("vstore: read catalog: %w", err)
		}
		if err := json.Unmarshal(raw, &db.catalog); err != nil {
			return fmt.Errorf("vstore: decode catalog: %w", err)
		}
		if db.catalog.Tables == nil {
			db.catalog.Tables = make(map[string]*tableMeta)
		}
	}
	for name, tm := range db.catalog.Tables {
		db.tables[name] = newTable(db, name, tm)
	}
	return nil
}

func (db *DB) closeFiles() error {
	werr := db.wal.close()
	perr := db.pager.close()
	if werr != nil {
		return werr
	}
	return perr
}

// Close checkpoints and closes the database. It fails if a transaction is
// still active. A degraded DB skips the checkpoint — its buffer pool may
// disagree with durable state, so the next Open must decide from the data
// file and WAL alone — and just closes the files.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	if db.activeTx != nil {
		return errors.New("vstore: close with active transaction")
	}
	db.stageMu.Lock()
	if db.stagers != 0 {
		db.stageMu.Unlock()
		return errors.New("vstore: close with active staged blob writers")
	}
	db.stageClosed = true
	db.stageMu.Unlock()
	if db.degraded.Load() == nil {
		if err := db.checkpointLocked(); err != nil {
			db.stageMu.Lock()
			db.stageClosed = false
			db.stageMu.Unlock()
			return err
		}
	}
	db.closed = true
	return db.closeFiles()
}

// SimulateCrash abandons the database without flushing dirty pages or
// checkpointing, as a process kill would. It deliberately takes no lock so
// it can fire while a transaction is open (the interesting crash case);
// like a real crash it must not race with operations on other goroutines.
// The DB is unusable afterwards. Intended for recovery tests.
func (db *DB) SimulateCrash() {
	if db.closed {
		return
	}
	db.closed = true
	db.activeTx = nil
	_ = db.closeFiles() //cbvrvet:ignore errvet simulated crash abandons state by design
}

// Checkpoint flushes all dirty pages to the data file and truncates the
// WAL.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.Degraded(); err != nil {
		return err
	}
	if db.activeTx != nil {
		return errors.New("vstore: checkpoint with active transaction")
	}
	return db.checkpointLocked()
}

// checkpointLocked flushes and truncates. A failure poisons the DB: a
// partial flush leaves the data file behind the buffer pool, and the WAL
// must be preserved exactly as-is for the next recovery, so no further
// writes may run.
func (db *DB) checkpointLocked() error {
	if err := db.pager.flushAll(); err != nil {
		return db.poison("checkpoint flush", err)
	}
	if err := db.wal.truncate(); err != nil {
		return db.poison("checkpoint wal truncate", err)
	}
	db.stats.Checkpoints++
	return nil
}

// poison transitions the DB into sticky degraded read-only mode, recording
// the first cause. It returns an error wrapping both ErrReadOnly and the
// cause so callers and HTTP classifiers see the transition immediately.
func (db *DB) poison(where string, cause error) error {
	err := fmt.Errorf("%w: %s: %v", ErrReadOnly, where, cause)
	db.degraded.CompareAndSwap(nil, &err)
	return err
}

// Degraded reports whether a write-path fault has poisoned the DB,
// returning the sticky error (wrapping ErrReadOnly and the first cause) or
// nil. Reads remain valid while degraded; all mutations fail fast.
func (db *DB) Degraded() error {
	if p := db.degraded.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats returns a snapshot of the operation counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.stats
}

// Path returns the data file path.
func (db *DB) Path() string { return db.path }

// TableNames lists the catalogued tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Txn is a read-write transaction. vstore runs a single writer at a time:
// Begin blocks until the previous transaction finishes.
type Txn struct {
	db     *DB
	id     uint64
	before map[PageID]beforeImage
	// spooled lists the pages of adopted staged blob chains (AdoptStaged):
	// always fresh file extensions, already written to the data file, never
	// touched (no before-images). Commit WAL-logs them unconditionally;
	// abort leaves them as unreachable file garbage (the same fate ordinary
	// pages allocated by an aborted transaction meet).
	spooled []PageID
	done    bool
}

type beforeImage struct {
	data     []byte
	wasDirty bool
}

// Begin starts a read-write transaction, taking the writer lock. It fails
// with ErrReadOnly once the DB is degraded.
func (db *DB) Begin() (*Txn, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	if err := db.Degraded(); err != nil {
		db.mu.Unlock()
		return nil, err
	}
	db.nextTxn++
	tx := &Txn{db: db, id: db.nextTxn, before: make(map[PageID]beforeImage)}
	db.activeTx = tx
	return tx, nil
}

// touch records the page's before-image once per transaction, pins it
// against eviction and marks it dirty. Every mutation must go through
// touch before writing page bytes.
func (tx *Txn) touch(p *Page) {
	if _, ok := tx.before[p.id]; !ok {
		img := make([]byte, PageSize)
		copy(img, p.data)
		tx.before[p.id] = beforeImage{data: img, wasDirty: p.dirty}
		p.pins++
	}
	p.dirty = true
}

// Commit logs after-images of every touched page, appends a commit record,
// syncs the WAL and releases the writer lock. Any fault on this path —
// WAL append, page re-read, fsync — restores the before-images (so reads
// keep serving the last committed snapshot) and poisons the DB into sticky
// degraded read-only mode: whether the transaction reached disk is
// indeterminate, so no further writes may run until a restart's recovery
// decides from durable state.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	db := tx.db
	defer db.mu.Unlock()
	tx.done = true
	db.activeTx = nil
	if err := tx.commitLocked(); err != nil {
		tx.restorePages()
		return db.poison("commit", err)
	}
	// Release writer pins only after the whole commit succeeded; the
	// failure path above needs every touched page still resident.
	for id := range tx.before {
		if p := db.pager.cached(id); p != nil {
			p.pins--
		}
	}
	db.stats.Commits++
	return nil
}

func (tx *Txn) commitLocked() error {
	db := tx.db
	// Adopted staged blob pages first: they carry no before-image and were
	// written straight to the data file (so they look clean), so they are
	// logged unconditionally, read back from disk if needed. A staged page
	// the transaction later touched (e.g. freed again) is logged by the
	// ordinary loop below instead.
	for _, id := range tx.spooled {
		if _, touched := tx.before[id]; touched {
			continue
		}
		p, err := db.pager.get(id)
		if err != nil {
			return fmt.Errorf("vstore: commit staged page: %w", err)
		}
		if _, err := db.wal.appendRecord(tx.id, walKindPageImage, id, p.data); err != nil {
			return err
		}
		db.stats.WALRecords++
	}

	ids := make([]PageID, 0, len(tx.before))
	for id := range tx.before {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p, err := db.pager.get(id)
		if err != nil {
			return fmt.Errorf("vstore: commit: %w", err)
		}
		if !p.dirty {
			continue
		}
		lsn, err := db.wal.appendRecord(tx.id, walKindPageImage, id, p.data)
		if err != nil {
			return err
		}
		p.SetLSN(lsn)
		db.stats.WALRecords++
	}
	if _, err := db.wal.appendRecord(tx.id, walKindCommit, 0, nil); err != nil {
		return err
	}
	db.stats.WALRecords++
	if !db.opts.NoWALSync {
		if err := db.wal.sync(); err != nil {
			return err
		}
	}
	return nil
}

// restorePages copies every touched page's before-image back into the
// buffer pool and releases writer pins. Touched pages are pinned, so they
// are guaranteed resident; cached() never hits the (possibly faulty) disk.
func (tx *Txn) restorePages() {
	db := tx.db
	for id, img := range tx.before {
		p := db.pager.cached(id)
		if p == nil {
			continue // never cached: unmodified on disk, nothing to undo
		}
		copy(p.data, img.data)
		p.dirty = img.wasDirty
		p.pins--
	}
}

// Abort restores every touched page's before-image and releases the
// writer lock. Pages allocated by the transaction become unreachable file
// garbage until the next reuse; this is a deliberate simplification.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	db := tx.db
	defer db.mu.Unlock()
	tx.done = true
	db.activeTx = nil
	tx.restorePages()
	db.stats.Aborts++
}

// allocPage hands out a page: from the free list if possible, otherwise by
// extending the file. The page is touched under tx.
func (db *DB) allocPage(tx *Txn) (*Page, error) {
	meta, err := db.pager.get(0)
	if err != nil {
		return nil, err
	}
	freeHead := PageID(binary.BigEndian.Uint32(meta.data[offMetaFree:]))
	if freeHead != invalidPage {
		p, err := db.pager.get(freeHead)
		if err != nil {
			return nil, err
		}
		tx.touch(meta)
		binary.BigEndian.PutUint32(meta.data[offMetaFree:], uint32(p.Link()))
		tx.touch(p)
		for i := range p.data {
			p.data[i] = 0
		}
		return p, nil
	}
	p, err := db.pager.allocate()
	if err != nil {
		return nil, err
	}
	tx.touch(p)
	return p, nil
}

// freePage pushes a page onto the free list.
func (db *DB) freePage(tx *Txn, p *Page) error {
	meta, err := db.pager.get(0)
	if err != nil {
		return err
	}
	tx.touch(p)
	for i := range p.data {
		p.data[i] = 0
	}
	p.SetType(pageTypeFree)
	p.SetLink(PageID(binary.BigEndian.Uint32(meta.data[offMetaFree:])))
	tx.touch(meta)
	binary.BigEndian.PutUint32(meta.data[offMetaFree:], uint32(p.id))
	return nil
}

// persistCatalog rewrites the catalog blob and points the meta page at it.
func (db *DB) persistCatalog(tx *Txn) error {
	raw, err := json.Marshal(&db.catalog)
	if err != nil {
		return fmt.Errorf("vstore: encode catalog: %w", err)
	}
	meta, err := db.pager.get(0)
	if err != nil {
		return err
	}
	oldPage := PageID(binary.BigEndian.Uint32(meta.data[offMetaCatalog:]))
	first, err := db.writeBlobChain(tx, raw)
	if err != nil {
		return err
	}
	tx.touch(meta)
	binary.BigEndian.PutUint32(meta.data[offMetaCatalog:], uint32(first))
	binary.BigEndian.PutUint64(meta.data[offMetaCatLen:], uint64(len(raw)))
	if oldPage != invalidPage {
		if err := db.freeBlobChain(tx, oldPage); err != nil {
			return err
		}
	}
	return nil
}
