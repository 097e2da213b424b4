// Package vstore exercises the errvet analyzer. The fixture package's
// import path is "vstore", which is inside the analyzer's storage-layer
// scope; every dropped-error form it hunts appears below, plus the
// type-aware negative and the suppression directive in both positions.
package vstore

import "os"

// dropSync drops the error as a bare statement.
func dropSync(f *os.File) {
	f.Sync() // want `Sync\(\) error dropped \(bare statement\)`
}

// dropClose drops the error behind a defer.
func dropClose(f *os.File) {
	defer f.Close() // want `Close\(\) error dropped \(defer\)`
}

// dropCloseGo drops the error behind a go statement.
func dropCloseGo(f *os.File) {
	go f.Close() // want `Close\(\) error dropped \(go statement\)`
}

// dropBlank discards the error into blank.
func dropBlank(f *os.File) {
	_ = f.Sync() // want `Sync\(\) error dropped \(assigned to blank\)`
}

// dropTruncateClosure drops inside a closure — the original AST tool's
// blind spot, covered by the migrated analyzer.
func dropTruncateClosure(f *os.File) func() {
	return func() {
		f.Truncate(0) // want `Truncate\(\) error dropped \(bare statement\)`
	}
}

// handled checks both errors: negative case.
func handled(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// ring's Truncate returns nothing; the type-aware analyzer leaves it
// alone where the old text matcher would have flagged it.
type ring struct{}

func (ring) Truncate(n int) {}

func truncRing(r ring) {
	r.Truncate(3)
}

// intended suppresses the finding from the same line.
func intended(f *os.File) {
	f.Sync() //cbvrvet:ignore errvet fixture: durability not required for this scratch file
}

// intended2 suppresses the finding from the line above.
func intended2(f *os.File) {
	//cbvrvet:ignore errvet fixture: scratch file, loss is acceptable
	f.Sync()
}

// notIntended carries the retired "errvet:ignore" spelling, which is
// prose now and suppresses nothing.
func notIntended(f *os.File) {
	// errvet:ignore retired spelling
	f.Sync() // want `Sync\(\) error dropped \(bare statement\)`
}
