// Sportsfinder is the domain workload the paper's introduction motivates:
// a large mixed archive in which a user wants to find sports footage. It
// ingests a mixed corpus, issues unseen sports-frame queries, and reports
// per-query precision@10 plus the video-level ranking for a sports clip.
//
//	go run ./examples/sportsfinder
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"cbvr"
)

func main() {
	dir, err := os.MkdirTemp("", "cbvr-sports-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sys, err := cbvr.Open(filepath.Join(dir, "sports.db"), cbvr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	fmt.Println("ingesting mixed archive (3 videos per category)…")
	for _, v := range cbvr.GenerateCorpus(3, cbvr.VideoConfig{Frames: 48, Shots: 5, Seed: 100}) {
		if _, err := sys.IngestFramesCtx(ctx, v.Name, v.Frames, 12); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\nframe-level: 5 unseen sports query frames, precision@10 each")
	var totalPrec float64
	for q := 0; q < 5; q++ {
		_, frames, _ := cbvr.GenerateVideo(cbvr.CategorySports,
			cbvr.VideoConfig{Frames: 12, Shots: 2, Seed: int64(9000 + q*31)})
		matches, err := sys.SearchFrameCtx(ctx, frames[6], cbvr.SearchOptions{K: 10})
		if err != nil {
			log.Fatal(err)
		}
		hits := 0
		for _, m := range matches {
			if strings.HasPrefix(m.VideoName, "sports_") {
				hits++
			}
		}
		prec := float64(hits) / 10
		totalPrec += prec
		fmt.Printf("  query %d: %d/10 sports results (precision %.2f)\n", q+1, hits, prec)
	}
	fmt.Printf("mean precision@10: %.2f\n", totalPrec/5)

	fmt.Println("\nvideo-level: rank the whole archive against an unseen sports clip (DP alignment)")
	_, clip, _ := cbvr.GenerateVideo(cbvr.CategorySports, cbvr.VideoConfig{Frames: 24, Shots: 3, Seed: 31337})
	vmatches, err := sys.SearchVideoCtx(ctx, clip, cbvr.SearchOptions{K: 6})
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range vmatches {
		marker := ""
		if strings.HasPrefix(m.VideoName, "sports_") {
			marker = "  ← sports"
		}
		fmt.Printf("  %d. %-14s distance %.4f%s\n", i+1, m.VideoName, m.Distance, marker)
	}
}
