// Quickstart: create a CBVR database, ingest one synthetic video per
// category, and run a query-by-example search with a frame the system has
// never seen.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cbvr"
)

func main() {
	dir, err := os.MkdirTemp("", "cbvr-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sys, err := cbvr.Open(filepath.Join(dir, "quickstart.db"), cbvr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	// Ingest one clip per category. GenerateCorpus stands in for the
	// paper's archive.org downloads.
	fmt.Println("ingesting corpus…")
	for _, v := range cbvr.GenerateCorpus(1, cbvr.VideoConfig{Frames: 36, Shots: 4, Seed: 42}) {
		res, err := sys.IngestFramesCtx(ctx, v.Name, v.Frames, 12)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s → video %d, %d frames, %d key frames\n",
			v.Name, res.VideoID, res.NumFrames, len(res.KeyFrameIDs))
	}

	// Query with a frame from a *different* sports clip (different seed):
	// the system has never seen these pixels.
	_, queryFrames, _ := cbvr.GenerateVideo(cbvr.CategorySports, cbvr.VideoConfig{Frames: 8, Shots: 1, Seed: 777})
	query := queryFrames[4]

	fmt.Println("\ntop 10 matches for an unseen sports frame (all 7 features combined):")
	matches, err := sys.SearchFrameCtx(ctx, query, cbvr.SearchOptions{K: 10})
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range matches {
		fmt.Printf("  %2d. %-14s frame #%-3d distance %.4f\n", i+1, m.VideoName, m.FrameIndex, m.Distance)
	}

	fmt.Println("\nsame query, colour histogram only:")
	matches, err = sys.SearchFrameCtx(ctx, query, cbvr.SearchOptions{K: 5, Kinds: []cbvr.FeatureKind{cbvr.FeatureHistogram}})
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range matches {
		fmt.Printf("  %2d. %-14s frame #%-3d distance %.4f\n", i+1, m.VideoName, m.FrameIndex, m.Distance)
	}
}
