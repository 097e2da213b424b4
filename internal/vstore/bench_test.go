package vstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func benchDB(b *testing.B, opts *Options) (*DB, *Table) {
	b.Helper()
	db, err := Open(filepath.Join(b.TempDir(), "bench.db"), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tx, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := db.CreateTable(tx, testSchema())
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return db, tbl
}

func BenchmarkVstoreInsertSmallRows(b *testing.B) {
	db, tbl := benchDB(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin()
		if _, err := tbl.Insert(tx, sampleRow(0, "bench", int64(i%200), nil)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVstoreInsertNoWALSync(b *testing.B) {
	db, tbl := benchDB(b, &Options{NoWALSync: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin()
		if _, err := tbl.Insert(tx, sampleRow(0, "bench", int64(i%200), nil)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVstoreInsertBatch100(b *testing.B) {
	db, tbl := benchDB(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin()
		for j := 0; j < 100; j++ {
			if _, err := tbl.Insert(tx, sampleRow(0, "bench", int64(j%200), nil)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVstoreInsertBlob64K(b *testing.B) {
	db, tbl := benchDB(b, nil)
	blob := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(blob)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin()
		if _, err := tbl.Insert(tx, sampleRow(0, "blob", 1, blob)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPopulated(b *testing.B, opts *Options, rows int) (*DB, *Table) {
	db, tbl := benchDB(b, opts)
	tx, _ := db.Begin()
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert(tx, sampleRow(0, fmt.Sprintf("row-%d", i), int64(i%200), nil)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return db, tbl
}

func BenchmarkVstoreGetByPK(b *testing.B) {
	_, tbl := benchPopulated(b, nil, 10000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := int64(rng.Intn(10000)) + 1
		if _, ok, err := tbl.Get(nil, pk); err != nil || !ok {
			b.Fatalf("pk %d: ok=%v err=%v", pk, ok, err)
		}
	}
}

// Buffer-pool sweep: random point reads over a table much larger than a
// small cache vs one that fits.
func BenchmarkVstoreBufferPool(b *testing.B) {
	for _, pages := range []int{16, 128, 2048} {
		b.Run(fmt.Sprintf("cache=%d", pages), func(b *testing.B) {
			_, tbl := benchPopulated(b, &Options{CachePages: pages}, 20000)
			rng := rand.New(rand.NewSource(3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pk := int64(rng.Intn(20000)) + 1
				if _, ok, err := tbl.Get(nil, pk); err != nil || !ok {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVstoreScan10K(b *testing.B) {
	_, tbl := benchPopulated(b, nil, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := tbl.Scan(nil, func(pk int64, row []Value) (bool, error) {
			n++
			return true, nil
		})
		if err != nil || n != 10000 {
			b.Fatalf("scan n=%d err=%v", n, err)
		}
	}
}

func BenchmarkVstoreUpdateInPlace(b *testing.B) {
	db, tbl := benchPopulated(b, nil, 1000)
	row, _, _ := tbl.Get(nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin()
		row[6] = Int64(int64(i % 200))
		if err := tbl.Update(tx, 1, row); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVstoreRecovery(b *testing.B) {
	// Measures replaying a ~100-commit WAL at open.
	dir := b.TempDir()
	path := filepath.Join(dir, "rec.db")
	db, err := Open(path, nil)
	if err != nil {
		b.Fatal(err)
	}
	tx, _ := db.Begin()
	tbl, _ := db.CreateTable(tx, testSchema())
	tx.Commit()
	for i := 0; i < 100; i++ {
		tx, _ := db.Begin()
		if _, err := tbl.Insert(tx, sampleRow(0, "r", int64(i%200), make([]byte, 2000))); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
	db.SimulateCrash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db2, err := Open(path, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		// Leave the WAL intact for the next iteration by crashing again
		// without checkpointing. Recovery rewrites the same pages, so the
		// replay is idempotent.
		db2.SimulateCrash()
		b.StartTimer()
	}
}

func BenchmarkBTreeInsertSequential(b *testing.B) {
	db, _ := benchDB(b, nil)
	tx, _ := db.Begin()
	h := &btHarness{db: db, root: invalidPage}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root, _, err := db.btInsert(tx, h.root, uint64(i), uint64(i), false)
		if err != nil {
			b.Fatal(err)
		}
		h.root = root
	}
	b.StopTimer()
	tx.Commit()
}

func BenchmarkBTreeSearch(b *testing.B) {
	db, _ := benchDB(b, nil)
	tx, _ := db.Begin()
	h := &btHarness{db: db, root: invalidPage}
	for i := 0; i < 100000; i++ {
		root, _, err := db.btInsert(tx, h.root, uint64(i), uint64(i), false)
		if err != nil {
			b.Fatal(err)
		}
		h.root = root
	}
	tx.Commit()
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(100000))
		if _, ok, err := db.btSearch(h.root, k); err != nil || !ok {
			b.Fatal(err)
		}
	}
}
