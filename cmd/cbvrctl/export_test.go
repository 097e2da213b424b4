package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"cbvr/internal/cvj"
	"cbvr/internal/synthvid"
)

// TestExportRoundTrip ingests a container with `ingest` and exports it
// back with `export`: the exported file is the ingested container, byte
// for byte, and an export that fails leaves no file at -out.
func TestExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v := synthvid.Generate(synthvid.News, synthvid.Config{Width: 64, Height: 48, Frames: 6, Shots: 2, Seed: 5})
	container, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "in.cvj")
	if err := os.WriteFile(in, container, 0o644); err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(dir, "x.db")
	if err := cmdIngest(context.Background(), []string{"-db", db, "-file", in, "-name", "clip"}); err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	out := filepath.Join(outDir, "out.cvj")
	if err := cmdExport([]string{"-db", db, "-id", "1", "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, container) {
		t.Fatalf("exported %d bytes that differ from the %d-byte ingested container", len(got), len(container))
	}

	missing := filepath.Join(outDir, "missing.cvj")
	if err := cmdExport([]string{"-db", db, "-id", "99", "-out", missing}); err == nil {
		t.Error("export of a missing video succeeded")
	}
	boom := errors.New("read failed")
	if _, err := writeFileAtomic(missing, io.MultiReader(bytes.NewReader(container), iotest.ErrReader(boom))); !errors.Is(err, boom) {
		t.Errorf("export over a reader failing mid-stream: %v", err)
	}
	ents, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "out.cvj" {
			t.Errorf("a failed export left %s behind", e.Name())
		}
	}
}
