package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cbvr/internal/features"
	"cbvr/internal/rangeindex"
	"cbvr/internal/synthvid"
)

// requireBitIdentical asserts the arena pipeline's ranking equals the
// reference exactly — same IDs, same metadata, and bit-equal distances
// (==, not within epsilon). The kernels are constructed to reproduce
// DistanceTo bit for bit, so any drift here is an arena-maintenance bug.
func requireBitIdentical(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// checkArenaAgainstReference runs every fusion mode at several worker
// counts for one query and requires bit identity with the naive
// reference scan.
func checkArenaAgainstReference(t *testing.T, eng *Engine, qset *features.Set, qbucket rangeindex.Range, label string) {
	t.Helper()
	for _, opt := range []SearchOptions{
		{K: 0, Fusion: FusionRRF, NoPruning: true},
		{K: 5, Fusion: FusionRRF},
		{K: 5, Fusion: FusionMinMax, NoPruning: true},
		{K: 3, Kinds: []features.Kind{features.KindGabor}, NoPruning: true},
	} {
		want, err := eng.SearchWithSetReference(qset, qbucket, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 0} {
			opt.Workers = workers
			got, err := eng.SearchWithSet(qset, qbucket, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("%s fusion=%d k=%d workers=%d", label, opt.Fusion, opt.K, workers), got, want)
		}
	}
}

// checkBucketColumn asserts the arena's §4.2 bucket column — the only
// thing the search-time range prune reads — mirrors the cache exactly:
// every live slot carries its entry's bucket, every free slot is cleared,
// and the live rows add up to the cached entry count. It also asserts the
// video index is a regrouping of the ID index: the same entries, each
// listed once under its own video, in frame order.
func checkBucketColumn(t *testing.T, eng *Engine, label string) {
	t.Helper()
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	live := 0
	for si, ar := range eng.arenas {
		if len(ar.bucket) != len(ar.ids) {
			t.Fatalf("%s: shard %d bucket column has %d slots, arena %d", label, si, len(ar.bucket), len(ar.ids))
		}
		for _, slot := range ar.live {
			if en := eng.byID[ar.ids[slot]]; ar.bucket[slot] != en.bucket {
				t.Fatalf("%s: shard %d slot %d column bucket %v, entry %d has %v", label, si, slot, ar.bucket[slot], en.id, en.bucket)
			}
		}
		for _, slot := range ar.free {
			if ar.bucket[slot] != (rangeindex.Range{}) {
				t.Fatalf("%s: shard %d free slot %d keeps bucket %v", label, si, slot, ar.bucket[slot])
			}
		}
		live += len(ar.live)
	}
	if n := len(eng.byID); live != n {
		t.Fatalf("%s: arenas hold %d live rows, cache %d", label, live, n)
	}
	listed := 0
	for vid, v := range eng.videos {
		if v.id != vid {
			t.Fatalf("%s: video index key %d holds video %d", label, vid, v.id)
		}
		for i, en := range v.frames {
			if en.videoID != vid {
				t.Fatalf("%s: entry %d of video %d listed under video %d", label, en.id, en.videoID, vid)
			}
			if eng.byID[en.id] != en {
				t.Fatalf("%s: video %d lists entry %d the ID index does not hold", label, vid, en.id)
			}
			if i > 0 && frameOrder(v.frames[i-1], en) >= 0 {
				t.Fatalf("%s: video %d frames out of order at %d: entry %d (frame %d) after entry %d (frame %d)",
					label, vid, i, en.id, en.frameIdx, v.frames[i-1].id, v.frames[i-1].frameIdx)
			}
		}
		listed += len(v.frames)
	}
	if listed != live {
		t.Fatalf("%s: video index lists %d entries, arenas hold %d live rows", label, listed, live)
	}
}

// TestArenaChurnBitIdentity interleaves every arena mutation path —
// ingest (slot append and free-slot reuse), delete (swap-remove),
// reindex (in-place repack) — with concurrent searches, and asserts
// arena-vs-reference bit identity after every single mutation. Run under
// -race this also pins the locking contract around the shared live list
// and column buffers.
func TestArenaChurnBitIdentity(t *testing.T) {
	eng, err := Open(filepath.Join(t.TempDir(), "churn.db"), Options{SearchShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	seed := ingest(t, eng, "seed_sports", synthvid.Sports, 600)
	ingest(t, eng, "seed_news", synthvid.News, 601)
	v := genVideo(synthvid.Sports, 600)
	qset := eng.ExtractQuerySets(v.Frames[:1])[0]
	qbucket := QueryBucket(v.Frames[0])

	// Background searchers keep reading while the mutator churns; they
	// assert nothing about content (the mutator does that between
	// mutations) — they exist to race the arena reads.
	stop := make(chan struct{})
	var searchErr atomic.Value
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opt := SearchOptions{K: 4, Fusion: Fusion(i % 2), NoPruning: i%2 == 0, Workers: s}
				if _, err := eng.SearchWithSet(qset, qbucket, opt); err != nil {
					searchErr.Store(err)
					return
				}
				if i%4 == 0 {
					if _, err := eng.BestSingleFrameVideoSearch([]*features.Set{qset}, SearchOptions{K: 2}); err != nil {
						searchErr.Store(err)
						return
					}
				}
			}
		}(s)
	}

	check := func(label string) {
		t.Helper()
		checkBucketColumn(t, eng, label)
		checkArenaAgainstReference(t, eng, qset, qbucket, label)
	}

	check("initial")
	var churnIDs []int64
	for round := 0; round < 4; round++ {
		cv := synthvid.Generate(synthvid.Movie, synthvid.Config{
			Width: 48, Height: 36, Frames: 6, Shots: 2, Seed: int64(700 + round),
		})
		res, err := eng.IngestFramesCtx(context.Background(), fmt.Sprintf("churn_%d", round), cv.Frames, cv.FPS)
		if err != nil {
			t.Fatal(err)
		}
		churnIDs = append(churnIDs, res.VideoID)
		check(fmt.Sprintf("round %d after ingest", round))

		if _, err := eng.ReindexVideoCtx(context.Background(), res.VideoID); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d after reindex", round))

		if round%2 == 1 {
			// Delete an older churn video: its slots go to the free list
			// and the next round's ingest must reuse them correctly.
			if err := eng.DeleteVideo(churnIDs[round-1]); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d after delete", round))
		}
	}
	// Reindex across a bucket change: swap stale entries over the seed
	// video's rows the way a reindex commit would, under a bucket no query
	// overlaps (as if an older extractor had assigned it), then let the
	// real reindex move every row back to its true bucket.
	stale := rangeindex.Range{Min: 256, Max: 300}
	eng.mu.Lock()
	for _, id := range seed.KeyFrameIDs {
		old := *eng.byID[id]
		old.bucket = stale
		set, err := eng.referenceSet(&old) // a swap carries its rebuilt set
		if err != nil {
			t.Fatal(err)
		}
		eng.replaceEntry(&old, set)
	}
	eng.mu.Unlock()
	check("after stale-bucket swap")
	if m, err := eng.SearchWithSet(qset, qbucket, SearchOptions{K: 1}); err != nil || (len(m) > 0 && m[0].VideoID == seed.VideoID) {
		t.Fatalf("stale-bucket rows still pass the range prune: %+v, %v", m, err)
	}
	if _, err := eng.ReindexVideoCtx(context.Background(), seed.VideoID); err != nil {
		t.Fatal(err)
	}
	check("after seed reindex")
	if m, err := eng.SearchWithSet(qset, qbucket, SearchOptions{K: 1}); err != nil || len(m) != 1 || m[0].VideoID != seed.VideoID {
		t.Fatalf("reindex did not move the seed rows back to their bucket: %+v, %v", m, err)
	}

	close(stop)
	wg.Wait()
	if err := searchErr.Load(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSlotReuseAndConsistency checks the slot bookkeeping directly:
// delete frees slots, a following ingest recycles them instead of
// growing the columns, and the live/pos/free structures stay mutually
// consistent throughout.
func TestArenaSlotReuseAndConsistency(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "base", synthvid.Sports, 620)

	arenaState := func() (slots, live, free int) {
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		for _, ar := range eng.arenas {
			slots += len(ar.ids)
			live += len(ar.live)
			free += len(ar.free)
		}
		return
	}
	checkConsistent := func() {
		t.Helper()
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		for si, ar := range eng.arenas {
			if len(ar.live)+len(ar.free) != len(ar.ids) {
				t.Fatalf("shard %d: %d live + %d free != %d slots", si, len(ar.live), len(ar.free), len(ar.ids))
			}
			for li, slot := range ar.live {
				if ar.pos[slot] != int32(li) {
					t.Fatalf("shard %d: live[%d]=%d but pos=%d", si, li, slot, ar.pos[slot])
				}
				en := eng.byID[ar.ids[slot]]
				if en == nil || en.slot != slot {
					t.Fatalf("shard %d slot %d: entry %+v", si, slot, en)
				}
			}
			for _, slot := range ar.free {
				if ar.ids[slot] != 0 || ar.pos[slot] != noSlot {
					t.Fatalf("shard %d: free slot %d still wired", si, slot)
				}
				for k := range ar.present {
					if ar.present[k][slot] {
						t.Fatalf("shard %d: free slot %d still present for kind %d", si, slot, k)
					}
				}
			}
			for k := range ar.missing {
				miss := 0
				for _, slot := range ar.live {
					if !ar.present[k][slot] {
						miss++
					}
				}
				if miss != ar.missing[k] {
					t.Fatalf("shard %d kind %d: missing=%d, counted %d", si, k, ar.missing[k], miss)
				}
			}
		}
	}

	checkConsistent()
	slots0, live0, _ := arenaState()
	if live0 == 0 || slots0 != live0 {
		t.Fatalf("baseline: %d slots, %d live", slots0, live0)
	}

	res, err := eng.IngestFramesCtx(context.Background(), "tmp", genVideo(synthvid.Movie, 621).Frames, 12)
	if err != nil {
		t.Fatal(err)
	}
	checkConsistent()
	if err := eng.DeleteVideo(res.VideoID); err != nil {
		t.Fatal(err)
	}
	checkConsistent()
	slots1, live1, free1 := arenaState()
	if live1 != live0 || free1 != len(res.KeyFrameIDs) {
		t.Fatalf("after delete: %d live (want %d), %d free (want %d)", live1, live0, free1, len(res.KeyFrameIDs))
	}

	// Re-ingesting a clip with no more key frames than were freed must
	// not grow the columns: every new entry lands in a recycled slot.
	res2, err := eng.IngestFramesCtx(context.Background(), "tmp2", genVideo(synthvid.Movie, 621).Frames, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.KeyFrameIDs) != len(res.KeyFrameIDs) {
		t.Fatalf("re-ingest yielded %d key frames, want %d", len(res2.KeyFrameIDs), len(res.KeyFrameIDs))
	}
	checkConsistent()
	slots2, _, free2 := arenaState()
	if slots2 != slots1 || free2 != 0 {
		t.Fatalf("after re-ingest: %d slots (want %d, no growth), %d free (want 0)", slots2, slots1, free2)
	}
}

// TestArenaMissingDescriptor pins the missing-descriptor path end to
// end: an entry whose set lacks kinds must rank by missingDistance in
// both pipelines identically, via the present flags on the arena side.
func TestArenaMissingDescriptor(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "full", synthvid.Sports, 630)
	v := genVideo(synthvid.Sports, 630)
	qset := eng.ExtractQuerySets(v.Frames[:1])[0]
	qbucket := QueryBucket(v.Frames[0])
	if err := eng.warmCache(); err != nil {
		t.Fatal(err)
	}

	// Install a partial entry the way a sparse stored row would load:
	// only two of the seven descriptors present.
	partial := &features.Set{Histogram: qset.Histogram, GLCM: qset.GLCM}
	eng.mu.Lock()
	regen := func(int64) *features.Set { return partial }
	eng.putEntry(&frameEntry{id: 1 << 40, videoID: 999, frameIdx: 0, bucket: qbucket, regen: regen}, partial)
	eng.video(999).name = "partial"
	eng.mu.Unlock()

	checkArenaAgainstReference(t, eng, qset, qbucket, "partial entry")

	// A kinds subset that only touches the missing descriptors must rank
	// the partial entry last in both pipelines.
	opt := SearchOptions{K: 0, Kinds: []features.Kind{features.KindGabor}, NoPruning: true}
	want, err := eng.SearchWithSetReference(qset, qbucket, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SearchWithSet(qset, qbucket, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "gabor-only with partial entry", got, want)
	if last := got[len(got)-1]; last.KeyFrameID != 1<<40 || last.Distance != missingDistance {
		t.Fatalf("partial entry not ranked last at missingDistance: %+v", last)
	}
}

// TestScanScratchGrowShapes pins the pooled-scratch capacity contract:
// buf and col grow independently, so a scratch warmed by a many-kind /
// few-candidate scan must survive a fewer-kind / more-candidate reuse
// (regression: col's capacity was inferred from buf's, panicking on the
// {7 kinds, 10 cands} → {1 kind, 50 cands} sequence).
func TestScanScratchGrowShapes(t *testing.T) {
	s := &scanScratch{}
	for _, shape := range [][2]int{{10, 7}, {50, 1}, {1, 7}, {200, 2}, {3, 3}} {
		n, nk := shape[0], shape[1]
		s.grow(n, nk)
		if len(s.buf) != n*nk || len(s.col) != n || len(s.cands) != n {
			t.Fatalf("grow(%d,%d): buf %d col %d cands %d", n, nk, len(s.buf), len(s.col), len(s.cands))
		}
		s.buf[n*nk-1] = 1
		s.col[n-1] = 1
	}
}

// fixedScaleDistance is the Set-based reference form of
// fixedScaleDistancePacked: the same fixed-scale fusion through
// Descriptor.DistanceTo.
func fixedScaleDistance(a, b *features.Set, kinds []features.Kind) float64 {
	var sum float64
	n := 0
	for _, kind := range kinds {
		da, db := a.Get(kind), b.Get(kind)
		if da == nil || db == nil {
			continue
		}
		d, err := da.DistanceTo(db)
		if err != nil {
			continue
		}
		sum += d / features.FixedScale(kind)
		n++
	}
	if n == 0 {
		return 1e9
	}
	return sum / float64(n)
}

// TestFixedScaleDistancePackedMatchesSet checks the DTW / best-frame
// cost path: the packed-kernel fixed-scale distance equals the Set-based
// form bit for bit for every cached entry, including kind subsets.
func TestFixedScaleDistancePackedMatchesSet(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "a", synthvid.Sports, 640)
	ingest(t, eng, "b", synthvid.Cartoon, 641)
	v := genVideo(synthvid.News, 642)
	qset := eng.ExtractQuerySets(v.Frames[:1])[0]
	if err := eng.warmCache(); err != nil {
		t.Fatal(err)
	}

	eng.mu.RLock()
	defer eng.mu.RUnlock()
	for _, kinds := range [][]features.Kind{
		features.AllKinds(),
		{features.KindHistogram, features.KindNaive},
		{features.KindGLCM},
	} {
		pq := packQuery(qset, kinds)
		n := 0
		for si, ar := range eng.arenas {
			for _, slot := range ar.live {
				en := eng.byID[ar.ids[slot]]
				set, err := eng.referenceSet(en)
				if err != nil {
					t.Fatal(err)
				}
				want := fixedScaleDistance(qset, set, kinds)
				if got := fixedScaleDistancePacked(pq, eng.arenas[si], slot); got != want {
					t.Fatalf("kinds=%v entry %d: packed %.17g != set %.17g", kinds, en.id, got, want)
				}
				n++
			}
		}
		if n == 0 {
			t.Fatal("no cached entries")
		}
	}
}
