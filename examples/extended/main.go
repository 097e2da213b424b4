// Extended demonstrates the paper's §6 future work — "integrating more
// features": the core system retrieves a candidate set with the seven
// canonical descriptors, then the MPEG-7 style extension descriptors
// (edge histogram, colour layout, dominant colour) re-rank the top
// results as a refinement stage.
//
//	go run ./examples/extended
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cbvr"
	"cbvr/internal/features/ext"
	"cbvr/internal/imaging"
)

func main() {
	dir, err := os.MkdirTemp("", "cbvr-extended-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sys, err := cbvr.Open(filepath.Join(dir, "ext.db"), cbvr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	fmt.Println("ingesting corpus (2 videos per category)…")
	for _, v := range cbvr.GenerateCorpus(2, cbvr.VideoConfig{Frames: 36, Shots: 4, Seed: 64}) {
		if _, err := sys.IngestFramesCtx(ctx, v.Name, v.Frames, 12); err != nil {
			log.Fatal(err)
		}
	}

	// Stage 1: core retrieval with the paper's seven features.
	_, qframes, _ := cbvr.GenerateVideo(cbvr.CategoryNature, cbvr.VideoConfig{Frames: 8, Shots: 1, Seed: 4242})
	query := qframes[4]
	matches, err := sys.SearchFrameCtx(ctx, query, cbvr.SearchOptions{K: 8, NoPruning: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstage 1 — core ranking (7 canonical features):")
	for i, m := range matches {
		fmt.Printf("  %d. %-14s frame #%-3d d=%.4f\n", i+1, m.VideoName, m.FrameIndex, m.Distance)
	}

	// Stage 2: fetch the candidate images back from the store and re-rank
	// with the extension descriptors.
	images := make([]*imaging.Image, len(matches))
	for i, m := range matches {
		jpg, ok, err := sys.Store().KeyFrameImage(nil, m.KeyFrameID)
		if err != nil || !ok {
			log.Fatalf("frame %d: %v", m.KeyFrameID, err)
		}
		im, err := imaging.DecodeJPEG(bytes.NewReader(jpg))
		if err != nil {
			log.Fatal(err)
		}
		images[i] = im
	}
	extractors := []ext.Extractor{
		func(im *imaging.Image) ext.Descriptor { return ext.ExtractEHD(im) },
		func(im *imaging.Image) ext.Descriptor { return ext.ExtractCLD(im) },
		func(im *imaging.Image) ext.Descriptor { return ext.ExtractDCD(im) },
	}
	reranked, err := ext.Rerank(query, images, extractors)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstage 2 — re-ranked by EHD + CLD + DCD (MPEG-7 extensions):")
	for pos, r := range reranked {
		m := matches[r.Index]
		fmt.Printf("  %d. %-14s frame #%-3d ext-d=%.4f (was rank %d)\n",
			pos+1, m.VideoName, m.FrameIndex, r.Distance, r.Index+1)
	}

	// Show the extension descriptors for the query itself.
	fmt.Println("\nextension descriptors of the query frame:")
	for name, exf := range ext.Extractors() {
		s := exf(query).String()
		if len(s) > 100 {
			s = s[:100] + "…"
		}
		fmt.Printf("  %s: %s\n", name, s)
	}
}
