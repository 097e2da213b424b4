package vstore

import (
	"errors"
	"fmt"
)

// Column declares one table column.
type Column struct {
	Name    string  `json:"name"`
	Type    ColType `json:"type"`
	NotNull bool    `json:"not_null,omitempty"`
}

// Schema declares a table. The first column is always the INT64 primary
// key; inserts may pass a NULL primary key to have one assigned.
type Schema struct {
	Name string   `json:"name"`
	Cols []Column `json:"cols"`
}

// validate checks structural invariants.
func (s *Schema) validate() error {
	if s.Name == "" {
		return errors.New("vstore: schema needs a name")
	}
	if len(s.Cols) == 0 {
		return fmt.Errorf("vstore: table %q needs columns", s.Name)
	}
	if s.Cols[0].Type != TypeInt64 {
		return fmt.Errorf("vstore: table %q primary key column %q must be INT64", s.Name, s.Cols[0].Name)
	}
	seen := make(map[string]struct{}, len(s.Cols))
	for i, c := range s.Cols {
		if c.Name == "" {
			return fmt.Errorf("vstore: table %q column %d unnamed", s.Name, i)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("vstore: table %q duplicate column %q", s.Name, c.Name)
		}
		seen[c.Name] = struct{}{}
	}
	return nil
}

// ColIndex returns the position of a column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Table provides typed row access over the heap and its primary-key
// B+tree.
type Table struct {
	db   *DB
	name string
	meta *tableMeta
}

func newTable(db *DB, name string, tm *tableMeta) *Table {
	return &Table{db: db, name: name, meta: tm}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema { return t.meta.Schema }

// CreateTable registers a new table inside the transaction.
func (db *DB) CreateTable(tx *Txn, s Schema) (*Table, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if _, exists := db.catalog.Tables[s.Name]; exists {
		return nil, fmt.Errorf("vstore: table %q already exists", s.Name)
	}
	tm := &tableMeta{Schema: s}
	db.catalog.Tables[s.Name] = tm
	if err := db.persistCatalog(tx); err != nil {
		delete(db.catalog.Tables, s.Name)
		return nil, err
	}
	t := newTable(db, s.Name, tm)
	db.tables[s.Name] = t
	return t, nil
}

// Table returns a handle to an existing table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("vstore: no table %q", name)
	}
	return t, nil
}

// NextPK returns the next unused primary key (max existing + 1).
func (t *Table) NextPK(tx *Txn) (int64, error) {
	unlock := t.rlockIfNeeded(tx)
	defer unlock()
	max, ok, err := t.db.btMax(t.meta.PKRoot)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 1, nil
	}
	return int64(max) + 1, nil
}

// rlockIfNeeded takes the DB read lock for tx == nil calls and returns the
// matching unlock; inside a transaction the writer lock is already held.
func (t *Table) rlockIfNeeded(tx *Txn) func() {
	if tx != nil {
		return func() {}
	}
	t.db.mu.RLock()
	return t.db.mu.RUnlock
}

// Insert adds a row and returns its primary key. A NULL first column
// requests auto-assignment. BLOB values are written out-of-row first.
func (t *Table) Insert(tx *Txn, row []Value) (int64, error) {
	if tx == nil {
		return 0, errors.New("vstore: Insert requires a transaction")
	}
	schema := &t.meta.Schema
	if len(row) != len(schema.Cols) {
		return 0, fmt.Errorf("vstore: row has %d values, want %d", len(row), len(schema.Cols))
	}
	work := make([]Value, len(row))
	copy(work, row)
	var pk int64
	if work[0].Null {
		next, err := t.NextPK(tx)
		if err != nil {
			return 0, err
		}
		pk = next
		work[0] = Int64(pk)
	} else {
		if work[0].Type != TypeInt64 {
			return 0, fmt.Errorf("vstore: primary key must be INT64")
		}
		pk = work[0].Int
	}
	if pk < 0 {
		return 0, fmt.Errorf("vstore: negative primary key %d", pk)
	}
	if err := t.writeBlobCols(tx, work); err != nil {
		return 0, err
	}
	rec, err := encodeRow(schema, work)
	if err != nil {
		return 0, err
	}
	rid, err := t.heapInsert(tx, rec)
	if err != nil {
		return 0, err
	}
	if err := t.pkInsert(tx, uint64(pk), rid, false); err != nil {
		return 0, err
	}
	return pk, nil
}

// writeBlobCols materialises out-of-row storage: TypeBlob values (raw
// bytes) become page chains, and TEXT values longer than the overflow
// threshold move to chains as well (TOAST-style), keeping every row within
// one page.
func (t *Table) writeBlobCols(tx *Txn, row []Value) error {
	for i := range row {
		if row[i].Null {
			continue
		}
		switch t.meta.Schema.Cols[i].Type {
		case TypeBlob:
			if row[i].Bytes == nil && !row[i].Blob.IsZero() {
				continue // already a reference (e.g. round-tripped row)
			}
			first, err := t.db.writeBlobChain(tx, row[i].Bytes)
			if err != nil {
				return err
			}
			row[i].Blob = BlobRef{First: first, Len: int64(len(row[i].Bytes))}
			row[i].Bytes = nil
		case TypeText:
			if row[i].overflowText || len(row[i].Str) <= textOverflowThreshold {
				continue
			}
			first, err := t.db.writeBlobChain(tx, []byte(row[i].Str))
			if err != nil {
				return err
			}
			row[i] = Value{
				Type:         TypeText,
				Blob:         BlobRef{First: first, Len: int64(len(row[i].Str))},
				overflowText: true,
			}
		}
	}
	return nil
}

// resolveOverflow fetches out-of-row TEXT values back into Str, returning
// plain inline values to callers.
func (t *Table) resolveOverflow(row []Value) error {
	for i := range row {
		if err := t.resolveText(i, &row[i]); err != nil {
			return err
		}
	}
	return nil
}

// resolveText fetches column i's value back into Str when it is an
// out-of-row TEXT value.
func (t *Table) resolveText(i int, v *Value) error {
	if !v.overflowText || v.Null {
		return nil
	}
	raw, err := t.db.readBlobChain(v.Blob.First, v.Blob.Len)
	if err != nil {
		return fmt.Errorf("vstore: resolve overflow text %s.%s: %w",
			t.meta.Schema.Name, t.meta.Schema.Cols[i].Name, err)
	}
	*v = Text(string(raw))
	return nil
}

// freeOutOfRow releases every chain (BLOB or overflow TEXT) owned by a
// decoded row.
func (t *Table) freeOutOfRow(tx *Txn, row []Value) error {
	for i, col := range t.meta.Schema.Cols {
		if row[i].Null {
			continue
		}
		isChain := (col.Type == TypeBlob && !row[i].Blob.IsZero()) ||
			(col.Type == TypeText && row[i].overflowText)
		if !isChain {
			continue
		}
		if err := t.db.freeBlobChain(tx, row[i].Blob.First); err != nil {
			return err
		}
	}
	return nil
}

// Get fetches a row by primary key. Pass tx == nil outside transactions.
func (t *Table) Get(tx *Txn, pk int64) ([]Value, bool, error) {
	unlock := t.rlockIfNeeded(tx)
	defer unlock()
	rid, ok, err := t.db.btSearch(t.meta.PKRoot, uint64(pk))
	if err != nil || !ok {
		return nil, false, err
	}
	rec, err := t.heapGet(rid)
	if err != nil {
		return nil, false, err
	}
	row, err := decodeRow(&t.meta.Schema, rec)
	if err != nil {
		return nil, false, err
	}
	if err := t.resolveOverflow(row); err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// GetColumn fetches column c of the row at pk, decoding the record only
// up to that column and copying none of the columns before it. An
// out-of-row TEXT value is resolved as Get resolves it. Pass tx == nil
// outside transactions.
func (t *Table) GetColumn(tx *Txn, pk int64, c int) (Value, bool, error) {
	if c < 0 || c >= len(t.meta.Schema.Cols) {
		return Value{}, false, fmt.Errorf("vstore: table %q has no column %d", t.name, c)
	}
	if tx == nil {
		t.db.mu.RLock() // not rlockIfNeeded: its unlock closure allocates
		defer t.db.mu.RUnlock()
	}
	rid, ok, err := t.db.btSearch(t.meta.PKRoot, uint64(pk))
	if err != nil || !ok {
		return Value{}, false, err
	}
	rec, err := t.heapView(rid)
	if err != nil {
		return Value{}, false, err
	}
	v, err := decodeUpTo(&t.meta.Schema, rec, c)
	if err != nil {
		return Value{}, false, err
	}
	if err := t.resolveText(c, &v); err != nil {
		return Value{}, false, err
	}
	return v, true, nil
}

// ReadBlob fetches an out-of-row value.
func (db *DB) ReadBlob(tx *Txn, ref BlobRef) ([]byte, error) {
	if ref.IsZero() {
		return nil, nil
	}
	if tx == nil {
		db.mu.RLock()
		defer db.mu.RUnlock()
	}
	return db.readBlobChain(ref.First, ref.Len)
}

// Update replaces the row at pk. Old blob chains are freed; new blob
// values are written.
func (t *Table) Update(tx *Txn, pk int64, row []Value) error {
	if tx == nil {
		return errors.New("vstore: Update requires a transaction")
	}
	schema := &t.meta.Schema
	if len(row) != len(schema.Cols) {
		return fmt.Errorf("vstore: row has %d values, want %d", len(row), len(schema.Cols))
	}
	rid, ok, err := t.db.btSearch(t.meta.PKRoot, uint64(pk))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("vstore: update: no row %d in %q", pk, t.name)
	}
	oldRec, err := t.heapGet(rid)
	if err != nil {
		return err
	}
	oldRow, err := decodeRow(schema, oldRec)
	if err != nil {
		return err
	}
	work := make([]Value, len(row))
	copy(work, row)
	work[0] = Int64(pk)
	if err := t.writeBlobCols(tx, work); err != nil {
		return err
	}
	rec, err := encodeRow(schema, work)
	if err != nil {
		return err
	}
	newRID, err := t.heapUpdate(tx, rid, rec)
	if err != nil {
		return err
	}
	if newRID != rid {
		if err := t.pkInsert(tx, uint64(pk), newRID, true); err != nil {
			return err
		}
	}
	// Free superseded chains (BLOBs and overflow TEXT) that the new row
	// does not reuse.
	for i, col := range schema.Cols {
		if oldRow[i].Null {
			continue
		}
		oldChain := (col.Type == TypeBlob && !oldRow[i].Blob.IsZero()) ||
			(col.Type == TypeText && oldRow[i].overflowText)
		if !oldChain || oldRow[i].Blob == work[i].Blob {
			continue
		}
		if err := t.db.freeBlobChain(tx, oldRow[i].Blob.First); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the row at pk, reporting whether it existed.
func (t *Table) Delete(tx *Txn, pk int64) (bool, error) {
	if tx == nil {
		return false, errors.New("vstore: Delete requires a transaction")
	}
	rid, ok, err := t.db.btSearch(t.meta.PKRoot, uint64(pk))
	if err != nil || !ok {
		return false, err
	}
	rec, err := t.heapGet(rid)
	if err != nil {
		return false, err
	}
	row, err := decodeRow(&t.meta.Schema, rec)
	if err != nil {
		return false, err
	}
	if err := t.freeOutOfRow(tx, row); err != nil {
		return false, err
	}
	if err := t.heapDelete(tx, rid); err != nil {
		return false, err
	}
	if _, err := t.db.btDelete(tx, t.meta.PKRoot, uint64(pk)); err != nil {
		return false, err
	}
	return true, nil
}

// Scan visits every row in primary-key order. fn returning false stops.
func (t *Table) Scan(tx *Txn, fn func(pk int64, row []Value) (bool, error)) error {
	unlock := t.rlockIfNeeded(tx)
	defer unlock()
	return t.db.btScan(t.meta.PKRoot, 0, ^uint64(0), func(k, rid uint64) (bool, error) {
		rec, err := t.heapGet(rid)
		if err != nil {
			return false, err
		}
		row, err := decodeRow(&t.meta.Schema, rec)
		if err != nil {
			return false, err
		}
		if err := t.resolveOverflow(row); err != nil {
			return false, err
		}
		return fn(int64(k), row)
	})
}

// Count returns the number of rows.
func (t *Table) Count(tx *Txn) (int, error) {
	unlock := t.rlockIfNeeded(tx)
	defer unlock()
	return t.db.btCount(t.meta.PKRoot, 0, ^uint64(0))
}

// pkInsert updates the primary index, persisting the catalog when the
// root page changes.
func (t *Table) pkInsert(tx *Txn, key, rid uint64, replace bool) error {
	root, _, err := t.db.btInsert(tx, t.meta.PKRoot, key, rid, replace)
	if err != nil {
		return err
	}
	if root != t.meta.PKRoot {
		t.meta.PKRoot = root
		if err := t.db.persistCatalog(tx); err != nil {
			return err
		}
	}
	return nil
}

// btMax returns the largest key in the tree.
func (db *DB) btMax(root PageID) (uint64, bool, error) {
	if root == invalidPage {
		return 0, false, nil
	}
	id := root
	for {
		p, err := db.pager.get(id)
		if err != nil {
			return 0, false, err
		}
		switch p.Type() {
		case pageTypeInternal:
			id = intChild(p, btNKeys(p))
		case pageTypeLeaf:
			n := btNKeys(p)
			if n == 0 {
				// Rightmost leaf may be empty after lazy deletes; walk
				// back is not possible, so scan from the start (rare).
				var max uint64
				found := false
				err := db.btScan(root, 0, ^uint64(0), func(k, _ uint64) (bool, error) {
					max, found = k, true
					return true, nil
				})
				return max, found, err
			}
			return leafKey(p, n-1), true, nil
		default:
			return 0, false, fmt.Errorf("vstore: page %d has type %d, not a btree node", id, p.Type())
		}
	}
}
