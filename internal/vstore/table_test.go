package vstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func testSchema() Schema {
	return Schema{
		Name: "T",
		Cols: []Column{
			{Name: "ID", Type: TypeInt64, NotNull: true},
			{Name: "NAME", Type: TypeText},
			{Name: "SCORE", Type: TypeFloat64},
			{Name: "DATA", Type: TypeBytes},
			{Name: "PAYLOAD", Type: TypeBlob},
			{Name: "WHEN", Type: TypeTime},
			{Name: "RANK", Type: TypeInt64, NotNull: true},
		},
	}
}

func createTestTable(t *testing.T, db *DB) *Table {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(tx, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func sampleRow(id int64, name string, rank int64, payload []byte) []Value {
	pk := NullV(TypeInt64)
	if id != 0 {
		pk = Int64(id)
	}
	return []Value{
		pk,
		Text(name),
		Float64V(float64(rank) * 1.5),
		BytesV([]byte{1, 2, 3}),
		Blob(payload),
		TimeV(time.Unix(1600000000, 0).UTC()),
		Int64(rank),
	}
}

func TestTableInsertGetRoundTrip(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)

	tx, _ := db.Begin()
	payload := bytes.Repeat([]byte("cbvr!"), 4000) // multi-page blob
	pk, err := tbl.Insert(tx, sampleRow(0, "first", 7, payload))
	if err != nil {
		t.Fatal(err)
	}
	if pk != 1 {
		t.Errorf("auto pk = %d, want 1", pk)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	row, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if row[1].Str != "first" || row[2].Float != 10.5 || row[6].Int != 7 {
		t.Errorf("row mismatch: %+v", row)
	}
	if !row[5].Time.Equal(time.Unix(1600000000, 0)) {
		t.Errorf("time mismatch: %v", row[5].Time)
	}
	got, err := db.ReadBlob(nil, row[4].Blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("blob mismatch: %d bytes vs %d", len(got), len(payload))
	}
}

func TestTableAutoPKSequence(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	for i := 1; i <= 5; i++ {
		pk, err := tbl.Insert(tx, sampleRow(0, fmt.Sprintf("r%d", i), int64(i), nil))
		if err != nil {
			t.Fatal(err)
		}
		if pk != int64(i) {
			t.Errorf("pk %d, want %d", pk, i)
		}
	}
	// Explicit pk then auto continues after it.
	if _, err := tbl.Insert(tx, sampleRow(100, "explicit", 6, nil)); err != nil {
		t.Fatal(err)
	}
	pk, err := tbl.Insert(tx, sampleRow(0, "after", 7, nil))
	if err != nil {
		t.Fatal(err)
	}
	if pk != 101 {
		t.Errorf("pk after explicit 100 = %d, want 101", pk)
	}
	tx.Commit()
}

func TestTableDuplicatePK(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	if _, err := tbl.Insert(tx, sampleRow(9, "a", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(tx, sampleRow(9, "b", 2, nil)); err == nil {
		t.Error("duplicate pk should fail")
	}
	tx.Commit()
}

func TestTableUpdate(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	pk, err := tbl.Insert(tx, sampleRow(0, "before", 1, []byte("old-blob")))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2, _ := db.Begin()
	row, _, _ := tbl.Get(tx2, pk)
	row[1] = Text("after-update-with-a-much-longer-name-to-force-relocation-" + string(bytes.Repeat([]byte("x"), 500)))
	row[4] = Blob([]byte("new-blob"))
	row[6] = Int64(42)
	if err := tbl.Update(tx2, pk, row); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	got, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("get after update: %v", err)
	}
	if got[6].Int != 42 {
		t.Errorf("rank not updated: %d", got[6].Int)
	}
	b, _ := db.ReadBlob(nil, got[4].Blob)
	if string(b) != "new-blob" {
		t.Errorf("blob not updated: %q", b)
	}
}

// TestTableUpdateRowLength pins that Update, like Insert, rejects a row of
// the wrong length with an error before touching any page. A panic there
// would leave the writer lock held and hang the next Close.
func TestTableUpdateRowLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "update.db")
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	pk, err := tbl.Insert(tx, sampleRow(0, "kept", 1, []byte("kept-blob")))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	update := func(tx *Txn, row []Value) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
				t.Errorf("Update with %d values panicked: %v", len(row), r)
			}
		}()
		return tbl.Update(tx, pk, row)
	}
	long := append(sampleRow(pk, "long", 2, []byte("new-blob")), Int64(7))
	for _, row := range [][]Value{{}, long} {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := update(tx, row); err == nil {
			t.Errorf("Update with %d values accepted, want %d", len(row), len(testSchema().Cols))
		}
		tx.Abort()
	}

	mustClean(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("close after rejected updates: %v", err)
	}
	db, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err = db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok || got[1].Str != "kept" || got[6].Int != 1 {
		t.Fatalf("row after rejected updates: ok=%v err=%v row=%v", ok, err, got)
	}
}

func TestTableDelete(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	pk1, _ := tbl.Insert(tx, sampleRow(0, "keep", 1, []byte("blob1")))
	pk2, _ := tbl.Insert(tx, sampleRow(0, "drop", 2, []byte("blob2")))
	tx.Commit()

	tx2, _ := db.Begin()
	ok, err := tbl.Delete(tx2, pk2)
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	ok, err = tbl.Delete(tx2, 999)
	if err != nil || ok {
		t.Fatalf("delete missing: ok=%v err=%v", ok, err)
	}
	tx2.Commit()

	if _, ok, _ := tbl.Get(nil, pk2); ok {
		t.Error("deleted row still readable")
	}
	if _, ok, _ := tbl.Get(nil, pk1); !ok {
		t.Error("sibling row lost")
	}
	n, _ := tbl.Count(nil)
	if n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestTableScanOrder(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	rng := rand.New(rand.NewSource(5))
	want := rng.Perm(200)
	for _, id := range want {
		if _, err := tbl.Insert(tx, sampleRow(int64(id)+1, "x", 3, nil)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	prev := int64(0)
	n := 0
	err := tbl.Scan(nil, func(pk int64, row []Value) (bool, error) {
		if pk <= prev {
			t.Fatalf("scan out of order: %d after %d", pk, prev)
		}
		prev = pk
		n++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Errorf("scanned %d rows, want 200", n)
	}
}

func TestTableNullHandling(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	row := sampleRow(0, "n", 1, nil)
	row[1] = NullV(TypeText)
	row[2] = NullV(TypeFloat64)
	row[3] = NullV(TypeBytes)
	row[4] = NullV(TypeBlob)
	row[5] = NullV(TypeTime)
	pk, err := tbl.Insert(tx, row)
	if err != nil {
		t.Fatal(err)
	}
	// NOT NULL violation.
	bad := sampleRow(0, "bad", 2, nil)
	bad[6] = NullV(TypeInt64)
	if _, err := tbl.Insert(tx, bad); err == nil {
		t.Error("NOT NULL violation not caught")
	}
	tx.Commit()
	got, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if !got[i].Null {
			t.Errorf("column %d should be NULL", i)
		}
	}
}

func TestTableTypeMismatch(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	defer tx.Commit()
	row := sampleRow(0, "x", 1, nil)
	row[2] = Text("not-a-float")
	if _, err := tbl.Insert(tx, row); err == nil {
		t.Error("type mismatch not caught")
	}
	if _, err := tbl.Insert(tx, row[:3]); err == nil {
		t.Error("arity mismatch not caught")
	}
}

// Row codec round-trip property over random content.
func TestRowCodecRoundTripProperty(t *testing.T) {
	schema := testSchema()
	f := func(name string, score float64, data []byte, rank uint8, nanos int64) bool {
		row := []Value{
			Int64(1),
			Text(name),
			Float64V(score),
			BytesV(data),
			Value{Type: TypeBlob, Blob: BlobRef{First: 3, Len: 17}},
			TimeV(time.Unix(0, nanos).UTC()),
			Int64(int64(rank)),
		}
		enc, err := encodeRow(&schema, row)
		if err != nil {
			return false
		}
		dec, err := decodeRow(&schema, enc)
		if err != nil {
			return false
		}
		return dec[1].Str == name &&
			(dec[2].Float == score || (score != score && dec[2].Float != dec[2].Float)) &&
			bytes.Equal(dec[3].Bytes, data) &&
			dec[4].Blob == row[4].Blob &&
			dec[5].Time.UnixNano() == nanos &&
			dec[6].Int == int64(rank)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchemaValidation(t *testing.T) {
	cases := []Schema{
		{},          // no name
		{Name: "X"}, // no cols
		{Name: "X", Cols: []Column{{Name: "A", Type: TypeText}}},                               // non-int pk
		{Name: "X", Cols: []Column{{Name: "A", Type: TypeInt64}, {Name: "A", Type: TypeText}}}, // dup col
	}
	for i, s := range cases {
		if err := s.validate(); err == nil {
			t.Errorf("case %d: invalid schema accepted", i)
		}
	}
	good := testSchema()
	if err := good.validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	db := openTestDB(t, nil)
	createTestTable(t, db)
	tx, _ := db.Begin()
	defer tx.Abort()
	if _, err := db.CreateTable(tx, testSchema()); err == nil {
		t.Error("duplicate table creation should fail")
	}
}

func TestTablePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/p.db"
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tbl, err := db.CreateTable(tx, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	pk, err := tbl.Insert(tx, sampleRow(0, "persist", 3, []byte("blob-persists")))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	row, ok, err := tbl2.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("row lost across reopen: ok=%v err=%v", ok, err)
	}
	if row[1].Str != "persist" {
		t.Errorf("name = %q", row[1].Str)
	}
	b, err := db2.ReadBlob(nil, row[4].Blob)
	if err != nil || string(b) != "blob-persists" {
		t.Errorf("blob = %q err=%v", b, err)
	}
}

// TestTableGetColumn checks that GetColumn returns exactly Get's value for
// every column, NULL, inline and out-of-row TEXT included, that it
// reports a missing key and rejects a column outside the schema, and that
// reading a BLOB reference this way allocates nothing.
func TestTableGetColumn(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	plain := sampleRow(0, "plain", 3, []byte("payload"))
	nulls := sampleRow(0, "", 4, nil)
	nulls[1], nulls[3] = NullV(TypeText), NullV(TypeBytes)
	long := sampleRow(0, string(bytes.Repeat([]byte("overflow "), textOverflowThreshold/4)), 5, nil)
	var pks []int64
	for _, row := range [][]Value{plain, nulls, long} {
		pk, err := tbl.Insert(tx, row)
		if err != nil {
			t.Fatal(err)
		}
		pks = append(pks, pk)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, pk := range pks {
		row, _, err := tbl.Get(nil, pk)
		if err != nil {
			t.Fatal(err)
		}
		for c := range row {
			v, ok, err := tbl.GetColumn(nil, pk, c)
			if err != nil || !ok {
				t.Fatalf("pk %d column %d: ok=%v err=%v", pk, c, ok, err)
			}
			if !reflect.DeepEqual(v, row[c]) {
				t.Errorf("pk %d column %d: GetColumn %+v, Get %+v", pk, c, v, row[c])
			}
		}
	}
	if _, ok, err := tbl.GetColumn(nil, 999, 4); ok || err != nil {
		t.Errorf("missing pk: ok=%v err=%v", ok, err)
	}
	if _, _, err := tbl.GetColumn(nil, pks[0], len(testSchema().Cols)); err == nil {
		t.Error("column past the schema: no error")
	}
	if n := testing.AllocsPerRun(50, func() { tbl.GetColumn(nil, pks[0], 4) }); n != 0 {
		t.Errorf("GetColumn of a BLOB reference allocated %v times", n)
	}
}

// TestNilTxnReadLockAllocFree checks that the read lock a nil-transaction
// Get, Scan, Count or NextPK takes costs no allocation: each call
// allocates exactly what the same call inside a transaction does, which
// takes no lock.
func TestNilTxnReadLockAllocFree(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	pk, err := tbl.Insert(tx, sampleRow(0, "row", 3, []byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	visit := func(int64, []Value) (bool, error) { return true, nil }
	calls := []struct {
		name string
		call func(tx *Txn)
	}{
		{"Get", func(tx *Txn) { tbl.Get(tx, pk) }},
		{"Scan", func(tx *Txn) { tbl.Scan(tx, visit) }},
		{"Count", func(tx *Txn) { tbl.Count(tx) }},
		{"NextPK", func(tx *Txn) { tbl.NextPK(tx) }},
	}
	for _, c := range calls {
		bare := testing.AllocsPerRun(50, func() { c.call(nil) })
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		inTx := testing.AllocsPerRun(50, func() { c.call(tx) })
		tx.Abort()
		if bare != inTx {
			t.Errorf("%s allocates %v times without a transaction, %v inside one", c.name, bare, inTx)
		}
	}
}
