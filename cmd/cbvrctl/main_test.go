package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"cbvr/internal/synthvid"
)

// TestGenAssignsStableIDs runs `gen` twice with the same seed into fresh
// stores: both must assign the same (ID, name) pairs, in synthvid's
// category-then-index order, so rankings that break ties by ID reproduce.
func TestGenAssignsStableIDs(t *testing.T) {
	const perCategory = 2
	var want []string
	for _, c := range synthvid.AllCategories() {
		for i := 0; i < perCategory; i++ {
			want = append(want, fmt.Sprintf("%s_%02d", c, i))
		}
	}

	gen := func(run int) []string {
		db := filepath.Join(t.TempDir(), fmt.Sprintf("gen%d.db", run))
		args := []string{"-db", db, "-videos", fmt.Sprint(perCategory), "-frames", "4", "-shots", "1", "-seed", "7"}
		if err := cmdGen(context.Background(), args); err != nil {
			t.Fatal(err)
		}
		sys, err := openSystem(db)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		vids, err := sys.Store().ListVideos(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, v := range vids {
			got = append(got, fmt.Sprintf("%d=%s", v.ID, v.Name))
		}
		return got
	}

	first, second := gen(1), gen(2)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed, different IDs:\n%v\n%v", first, second)
	}
	if len(first) != len(want) {
		t.Fatalf("%d videos, want %d", len(first), len(want))
	}
	for i, name := range want {
		if got := first[i]; got != fmt.Sprintf("%d=%s", i+1, name) {
			t.Errorf("video %d is %s, want %d=%s", i, got, i+1, name)
		}
	}
}
