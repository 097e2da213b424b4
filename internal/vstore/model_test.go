package vstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// modelRow is the in-memory oracle for one table row.
type modelRow struct {
	name string
	rank int64
	blob []byte
}

// TestTableModelRandomOps drives the full table stack (heap, pk index,
// blobs, overflow text, transactions with aborts and crash-recovery
// reopen) through a long random schedule, cross-checking
// every observable against an in-memory map model.
func TestTableModelRandomOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.db")
	db, err := Open(path, &Options{CachePages: 64}) // small cache → real eviction
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	tx, _ := db.Begin()
	tbl, err := db.CreateTable(tx, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	model := make(map[int64]modelRow)
	rng := rand.New(rand.NewSource(20240611))
	longName := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}

	verify := func(stage string) {
		t.Helper()
		n, err := tbl.Count(nil)
		if err != nil {
			t.Fatalf("%s: count: %v", stage, err)
		}
		if n != len(model) {
			t.Fatalf("%s: count %d, model %d", stage, n, len(model))
		}
		for pk, want := range model {
			row, ok, err := tbl.Get(nil, pk)
			if err != nil || !ok {
				t.Fatalf("%s: pk %d: ok=%v err=%v", stage, pk, ok, err)
			}
			if row[1].Str != want.name {
				t.Fatalf("%s: pk %d name mismatch (%d vs %d bytes)", stage, pk, len(row[1].Str), len(want.name))
			}
			if row[6].Int != want.rank {
				t.Fatalf("%s: pk %d rank %d, want %d", stage, pk, row[6].Int, want.rank)
			}
			if want.blob != nil {
				got, err := db.ReadBlob(nil, row[4].Blob)
				if err != nil || len(got) != len(want.blob) {
					t.Fatalf("%s: pk %d blob: len %d want %d err=%v", stage, pk, len(got), len(want.blob), err)
				}
			}
		}
	}

	pks := func() []int64 {
		out := make([]int64, 0, len(model))
		for pk := range model {
			out = append(out, pk)
		}
		return out
	}

	for round := 0; round < 60; round++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		abort := rng.Intn(5) == 0
		staged := make(map[int64]*modelRow) // nil value = delete
		for op := 0; op < 1+rng.Intn(6); op++ {
			switch rng.Intn(3) {
			case 0: // insert (sometimes with overflow-length name / blob)
				m := modelRow{name: longName(rng.Intn(1200)), rank: int64(rng.Intn(200))}
				if rng.Intn(2) == 0 {
					m.blob = make([]byte, rng.Intn(10000))
				}
				pk, err := tbl.Insert(tx, sampleRow(0, m.name, m.rank, m.blob))
				if err != nil {
					t.Fatalf("round %d insert: %v", round, err)
				}
				staged[pk] = &m
			case 1: // update a live row
				cands := pks()
				for pk, m := range staged {
					if m != nil {
						cands = append(cands, pk)
					}
				}
				if len(cands) == 0 {
					continue
				}
				pk := cands[rng.Intn(len(cands))]
				if m, inStage := staged[pk]; inStage && m == nil {
					continue // deleted this txn
				}
				row, ok, err := tbl.Get(tx, pk)
				if err != nil || !ok {
					t.Fatalf("round %d get for update %d: ok=%v err=%v", round, pk, ok, err)
				}
				m := modelRow{name: longName(rng.Intn(1200)), rank: int64(rng.Intn(200))}
				row[1] = Text(m.name)
				row[6] = Int64(m.rank)
				if prev, inStage := staged[pk]; inStage && prev != nil && prev.blob != nil {
					m.blob = prev.blob
				} else if prev, inModel := model[pk]; !inStage && inModel {
					m.blob = prev.blob
				}
				if err := tbl.Update(tx, pk, row); err != nil {
					t.Fatalf("round %d update %d: %v", round, pk, err)
				}
				staged[pk] = &m
			case 2: // delete a live row
				cands := pks()
				if len(cands) == 0 {
					continue
				}
				pk := cands[rng.Intn(len(cands))]
				if _, inStage := staged[pk]; inStage {
					continue
				}
				ok, err := tbl.Delete(tx, pk)
				if err != nil || !ok {
					t.Fatalf("round %d delete %d: ok=%v err=%v", round, pk, ok, err)
				}
				staged[pk] = nil
			}
		}
		if abort {
			tx.Abort()
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for pk, m := range staged {
				if m == nil {
					delete(model, pk)
				} else {
					model[pk] = *m
				}
			}
		}
		if round%15 == 14 {
			verify(fmt.Sprintf("round %d", round))
		}
		// Periodically checkpoint or crash+reopen to exercise recovery.
		switch round {
		case 20:
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 40:
			db.SimulateCrash()
			db, err = Open(path, &Options{CachePages: 64})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			tbl, err = db.Table("T")
			if err != nil {
				t.Fatal(err)
			}
			verify("post-crash")
		}
	}
	verify("final")
}
