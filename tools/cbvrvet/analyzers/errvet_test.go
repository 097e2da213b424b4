package analyzers_test

import (
	"strings"
	"testing"

	"cbvr/tools/cbvrvet/analyzers"
	"cbvr/tools/cbvrvet/vettest"
)

// TestErrvet runs the migrated errcheck-style analyzer over a fixture
// package whose import path ("vstore") is inside the storage scope.
func TestErrvet(t *testing.T) {
	vettest.Run(t, vettest.TestData(t), analyzers.Errvet, "vstore")
}

// TestRegistry pins the suite composition: the analyzer count, names and
// order.
func TestRegistry(t *testing.T) {
	all := analyzers.All()
	if len(all) != 5 {
		t.Fatalf("analyzers.All() has %d analyzers, want 5", len(all))
	}
	want := []string{"lockorder", "ctxloop", "poolguard", "noalloc", "errvet"}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing Doc or Run", a.Name)
		}
		if strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q contains whitespace", a.Name)
		}
	}
}
