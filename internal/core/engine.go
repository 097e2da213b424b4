// Package core implements the paper's CBVR engine: the ingest pipeline
// (video container → frames → §4.1 key frames → §4.3–4.8 features → §4.2
// range bucket → VIDEO_STORE/KEY_FRAMES rows) and the query pipeline
// (query frame → features → range pruning → per-feature scoring → fusion →
// ranked results), plus the dynamic-programming video-to-video search.
package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"cbvr/internal/catalog"
	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/rangeindex"
	"cbvr/internal/vstore"
)

// Options configures an Engine.
type Options struct {
	// KeyframeThreshold overrides the §4.1 similarity cut-off
	// (default 800).
	KeyframeThreshold float64
	// SearchShards fixes the number of partitions the descriptor arenas
	// are split into for the concurrent search pipeline. <= 0 uses
	// GOMAXPROCS.
	// The shard count is set at Open and does not change for the engine's
	// lifetime; frame-search parallelism (SearchOptions.Workers) is
	// clamped to it, since each shard is scanned by one worker.
	SearchShards int
	// Store tunes the underlying vstore database.
	Store vstore.Options

	// cells replaces defaultCells when set (the package's tests only).
	cells cellConfig
}

// Fusion selects how per-feature distances combine into one ranking.
type Fusion int

const (
	// FusionRRF (default) is reciprocal rank fusion: scale-free and
	// robust to individually weak features, which is what makes the
	// paper's "Combined" column dominate every single feature.
	FusionRRF Fusion = iota
	// FusionMinMax min-max normalises each feature's distances and takes
	// their weighted mean (classic score fusion; the fusion ablation
	// baseline).
	FusionMinMax
)

// SearchOptions configures one retrieval call.
type SearchOptions struct {
	// K bounds the result count; <= 0 returns everything ranked.
	K int
	// Kinds selects the features to combine; empty means all seven
	// (the paper's "Combined" configuration).
	Kinds []features.Kind
	// Weights gives per-kind fusion weights aligned with Kinds; nil means
	// equal weights. Only FusionMinMax uses weights, but every search
	// rejects a length other than the number of kinds.
	Weights []float64
	// Fusion selects the rank-combination rule (default FusionRRF).
	Fusion Fusion
	// NoPruning disables the §4.2 range-bucket candidate pruning and scans
	// every key frame (used by the pruning ablation).
	NoPruning bool
	// NoCellPruning disables the coarse-cell candidate pruner for this
	// call: every candidate row is kernel-swept exactly as before the
	// pruner existed (the exact baseline for recall evaluation).
	NoCellPruning bool
	// Workers overrides the engine's query-time parallelism for this call
	// only: the number of goroutines scoring cache shards in the
	// per-shard sweep and the min-max probe, and ranking kinds in their
	// fusion. <= 0 uses GOMAXPROCS; 1 runs the whole search on the calling
	// goroutine. Frame searches are additionally clamped to the engine's
	// fixed shard count (Options.SearchShards), one worker per shard. The
	// threshold traversal (traverse.go) runs on the calling goroutine
	// whatever Workers says. Results are identical at any worker count.
	Workers int
}

// ErrEmptyName is returned by every ingest entry point for an empty (or
// all-whitespace) video name. A video ingested with an empty name renders
// as a blank, unclickable row in every listing — reject it at the source
// so no surface can create one.
var ErrEmptyName = errors.New("empty video name")

// ErrNotFound is wrapped by operations addressing a video ID that does not
// exist; HTTP layers map it to 404 instead of blaming the request bytes.
var ErrNotFound = errors.New("no such video")

// Match is one ranked key-frame result.
type Match struct {
	KeyFrameID int64   `json:"key_frame_id"`
	VideoID    int64   `json:"video_id"`
	VideoName  string  `json:"video_name"`
	FrameIndex int     `json:"frame_index"`
	Distance   float64 `json:"distance"`
}

// VideoMatch is one ranked video-level result.
type VideoMatch struct {
	VideoID   int64
	VideoName string
	Distance  float64
}

// IngestResult summarises one ingested video.
type IngestResult struct {
	VideoID     int64   `json:"video_id"`
	NumFrames   int     `json:"num_frames"`
	KeyFrameIDs []int64 `json:"key_frame_ids"`
}

// Engine is the CBVR system facade over the catalog store.
//
// The scoreable key-frame cache is indexed twice: by key-frame ID (byID)
// and by video (videos), the two granularities a query works at. Its
// packed descriptors are partitioned into a fixed number of arena shards
// keyed by key-frame ID (id mod len(arenas)); each shard's arena carries
// the §4.2 bucket column the range prune sweeps. A bounded single-kind or
// RRF frame search with usable cells walks every shard's cells in one
// threshold traversal on the calling goroutine; any other frame search
// fans one worker out per shard, and a video search one per video.
// Ingest, reindex and delete update both indexes and the owning shard
// under the engine write lock. See DESIGN.md ("Sharded search pipeline").
type Engine struct {
	store *catalog.Store
	opts  Options

	mu     sync.RWMutex
	byID   map[int64]*frameEntry // key-frame ID -> cached entry
	videos map[int64]*videoEntry // video ID -> name and cached key frames
	arenas []*shardArena         // per-shard packed descriptor columns, by id mod N (see arena.go)
	cells  []*shardCells         // per-shard coarse pruning cells (see cells.go)
	warm   bool

	// tally accumulates per-search work counters (atomic, written outside
	// the engine lock) for the stats surfaces.
	tally searchTally

	// reindexHook, when set by tests, fires at named points inside
	// ReindexVideoCtx's replacement transaction (fault injection).
	reindexHook func(stage string)

	// ingestHook, when set by tests, fires at named points of the staged
	// ingest pipeline: "staged" after spooling completes (no locks held)
	// and "in-commit" inside the commit critical section (writer lock
	// held). Used to prove staging overlaps a blocked commit.
	ingestHook func(stage, name string)
}

// frameEntry caches one key frame's parsed state for scoring. It holds
// no descriptor set: the set is packed into the arena row when the entry
// is filed (putEntry, replaceEntry) and then dropped, so the heap keeps
// one copy of each descriptor. Search reads the arena row; the reference
// rebuilds the set on demand (referenceSet).
type frameEntry struct {
	id       int64
	videoID  int64
	frameIdx int
	bucket   rangeindex.Range
	// regen regenerates a cache-only synthetic frame's descriptor set for
	// the reference; one func value shared by its whole publish. It is nil
	// for a stored row, whose set is re-read from its KEY_FRAMES text.
	regen func(id int64) *features.Set
	slot  int32 // row in the owning shard's arena; set by putEntry
}

// videoEntry is one video's slice of the cache: its name and its cached
// key frames in frame order, the sequence the video search aligns.
type videoEntry struct {
	id     int64
	name   string
	frames []*frameEntry
}

// frameOrder sorts a video's frames by frame index, then key-frame ID.
func frameOrder(a, b *frameEntry) int {
	if c := cmp.Compare(a.frameIdx, b.frameIdx); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// Open opens (creating if needed) a CBVR engine at the given database
// path.
func Open(path string, opts Options) (*Engine, error) {
	st, err := catalog.Open(path, &opts.Store)
	if err != nil {
		return nil, err
	}
	n := searchShardCount(opts)
	cellCfg := defaultCells
	if opts.cells != (cellConfig{}) {
		cellCfg = opts.cells
	}
	arenas := make([]*shardArena, n)
	cells := make([]*shardCells, n)
	for i := range arenas {
		arenas[i] = newShardArena()
		cells[i] = newShardCells(cellCfg)
	}
	return &Engine{
		store:  st,
		opts:   opts,
		byID:   make(map[int64]*frameEntry),
		videos: make(map[int64]*videoEntry),
		arenas: arenas,
		cells:  cells,
	}, nil
}

// maxSearchShards caps the cache partition count: beyond this, per-query
// fan-out overhead outweighs any parallelism the hardware can deliver.
const maxSearchShards = 256

// searchShardCount resolves the fixed shard count for an engine:
// SearchShards, else GOMAXPROCS, clamped to [1, maxSearchShards].
func searchShardCount(opts Options) int {
	n := opts.SearchShards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	if n > maxSearchShards {
		n = maxSearchShards
	}
	return n
}

// shardFor maps a key-frame ID to its arena shard.
func (e *Engine) shardFor(id int64) int {
	return int(uint64(id) % uint64(len(e.arenas)))
}

// video returns a video's index entry, creating an empty one. Callers
// must hold e.mu for writing.
func (e *Engine) video(id int64) *videoEntry {
	v := e.videos[id]
	if v == nil {
		v = &videoEntry{id: id}
		e.videos[id] = v
	}
	return v
}

// link files en into its video's frame list, keeping frame order.
func (e *Engine) link(en *frameEntry) {
	v := e.video(en.videoID)
	i, _ := slices.BinarySearchFunc(v.frames, en, frameOrder)
	v.frames = slices.Insert(v.frames, i, en)
}

// putEntry files an entry into both cache indexes, its shard's descriptor
// arena (packed from set) and the shard's cell index. Callers must hold
// e.mu for writing. Re-inserting an already cached ID is a no-op so
// warmCache never double-indexes entries added by ingest.
func (e *Engine) putEntry(en *frameEntry, set *features.Set) {
	if _, ok := e.byID[en.id]; ok {
		return
	}
	e.byID[en.id] = en
	e.link(en)
	s := e.shardFor(en.id)
	e.arenas[s].insert(en, set)
	e.cells[s].onInsert(e.arenas[s], en.slot)
}

// replaceEntry swaps a rebuilt entry over the cached one with the same ID
// (the reindex commit path): the arena row — descriptors from set, and
// bucket — is repacked in place, reusing the old slot. The old entry
// leaves its own video's frame list, which need not be the new entry's
// video (a cache-only synthetic frame can hold the ID). A previously
// unseen ID falls back to a plain insert. Callers must hold e.mu for
// writing.
func (e *Engine) replaceEntry(en *frameEntry, set *features.Set) {
	old := e.byID[en.id]
	if old == nil {
		e.putEntry(en, set)
		return
	}
	ov := e.videos[old.videoID]
	i := slices.Index(ov.frames, old)
	ov.frames = slices.Delete(ov.frames, i, i+1)
	e.byID[en.id] = en
	e.link(en)
	en.slot = old.slot
	old.slot = noSlot
	s := e.shardFor(en.id)
	ar := e.arenas[s]
	ar.repack(en, set)
	e.cells[s].onRepack(ar, en.slot)
}

// Close closes the engine and its database.
func (e *Engine) Close() error { return e.store.Close() }

// Store exposes the catalog layer (admin operations, diagnostics).
func (e *Engine) Store() *catalog.Store { return e.store }

// Degraded reports the underlying store's sticky read-only state: nil
// while healthy, the poisoning fault (wrapping vstore.ErrReadOnly) once a
// transactional write fault has forced the store read-only. Reads and
// searches keep serving the last committed snapshot; mutations fail fast
// until the process restarts and recovery settles durable state.
func (e *Engine) Degraded() error { return e.store.DB().Degraded() }

// IngestFramesCtx encodes frames as a CVJ container and ingests it. A
// frame that fails JPEG encoding aborts here, deterministically naming the
// first failing frame, before any database transaction begins. The
// ingest's decode loop checks cancellation between frames (the encode
// itself is in-memory and quick), so aborting a corpus load stops within
// one frame and commits nothing for the in-flight video.
func (e *Engine) IngestFramesCtx(ctx context.Context, name string, frames []*imaging.Image, fps int) (*IngestResult, error) {
	if len(frames) == 0 {
		return nil, errors.New("core: no frames to ingest")
	}
	container, err := cvj.EncodeBytes(frames, fps, 0)
	if err != nil {
		return nil, fmt.Errorf("core: ingest %q: %w", name, err)
	}
	return e.IngestVideoStreamCtx(ctx, name, bytes.NewReader(container))
}

// IngestVideoStreamCtx runs the full ingest pipeline directly from a
// container byte stream: frames are decoded one at a time, §4.1 key-frame
// selection runs as they arrive, and each selected key frame is handed to
// a bounded worker pool that extracts features (§4.3–4.8) and the §4.2
// range bucket while later frames are still being decoded. Non-key frames
// are never retained, so ingest memory is proportional to the number of
// key frames, not the number of frames. Stored key-frame images and the
// key-frame stream reuse the container's original JPEG records; the §4.1
// selection signature is installed into each key frame's descriptor set
// instead of being recomputed. See DESIGN.md ("Key-frame pipeline").
//
// Concurrent clients serialize only on the commit (DESIGN.md "Two-phase
// staged ingest"). Staging — decode, selection, extraction, and the
// container re-assembled into a staged blob chain outside any
// transaction — runs with no store lock, and the compressed container
// never sits in memory. commitIngest then adopts the chains and writes
// the rows in one short transaction, and publishes the cache entries
// under one engine lock, so no search sees part of the video.
//
// All failure paths run on the decode loop, so errors are deterministic —
// the first failing frame in stream order wins. Every early exit,
// including a cancelled context (checked once per decode iteration),
// discards the staged chains and commits nothing: the store is untouched,
// as if the request never arrived.
func (e *Engine) IngestVideoStreamCtx(ctx context.Context, name string, r io.Reader) (*IngestResult, error) {
	fail := func(err error) (*IngestResult, error) {
		return nil, fmt.Errorf("core: ingest %q: %w", name, err)
	}
	if strings.TrimSpace(name) == "" {
		return fail(ErrEmptyName)
	}
	cr, err := cvj.NewReader(r)
	if err != nil {
		return fail(err) // header errors never pay for staging
	}
	db := e.store.DB()
	vw, err := db.NewStagedBlobWriter()
	if err != nil {
		return fail(err)
	}
	defer vw.Discard() // no-op once adopted by the commit transaction
	cw, err := cvj.NewWriter(vw, cr.FPS())
	if err != nil {
		return fail(err)
	}

	jobs, err := e.selectKeyFrames(&frameSource{ctx: ctx, cr: cr, cw: cw})
	if err != nil {
		return fail(err)
	}
	if err := cw.Close(); err != nil {
		return fail(err)
	}
	return e.commitIngest(ctx, name, vw, cr.FPS(), cr.FramesRead(), jobs)
}

// commitIngest is the one ingest commit path, shared by the streamed
// pipeline and the reference. vw holds the video's container bytes, staged
// by the caller, which also discards it on failure. commitIngest stages
// the key-frame-only stream (the VIDEO_STORE.STREAM column) beside it,
// assembled from the container's original JPEG records — no
// decode→re-encode generation loss — then adopts both chains, inserts the
// rows and commits in one transaction, and publishes the cache entries.
func (e *Engine) commitIngest(ctx context.Context, name string, vw *vstore.BlobWriter, fps, numFrames int, jobs []*kfJob) (*IngestResult, error) {
	fail := func(err error) (*IngestResult, error) {
		return nil, fmt.Errorf("core: ingest %q: %w", name, err)
	}
	videoRef, err := vw.Close()
	if err != nil {
		return fail(err)
	}
	kfJpegs := make([][]byte, len(jobs))
	for i, j := range jobs {
		kfJpegs[i] = j.jpeg
	}
	sw, err := e.store.DB().NewStagedBlobWriter()
	if err != nil {
		return fail(err)
	}
	defer sw.Discard()
	if err := cvj.EncodeRaw(sw, kfJpegs, fps); err != nil {
		return fail(err)
	}
	streamRef, err := sw.Close()
	if err != nil {
		return fail(err)
	}
	// Last cancellation point before the commit section: a request
	// cancelled during staging must never reach the writer lock.
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if e.ingestHook != nil {
		e.ingestHook("staged", name)
	}

	// Commit section: adopt the staged chains, write the rows, commit.
	// This is the only part of ingest that serializes between clients.
	tx, err := e.store.Begin()
	if err != nil {
		return fail(err)
	}
	defer tx.Abort() // no-op once committed
	if e.ingestHook != nil {
		e.ingestHook("in-commit", name)
	}
	if err := tx.AdoptStaged(vw); err != nil {
		return fail(err)
	}
	if err := tx.AdoptStaged(sw); err != nil {
		return fail(err)
	}
	videoID, err := e.store.InsertVideo(tx, &catalog.Video{Name: name, VideoRef: videoRef, StreamRef: streamRef, DoStore: time.Now().UTC()})
	if err != nil {
		return fail(err)
	}
	res := &IngestResult{VideoID: videoID, NumFrames: numFrames}
	entries := make([]*frameEntry, len(jobs))
	//cbvrvet:ignore ctxloop the commit section is deliberately uninterruptible: past the last cancellation point above, the transaction must fully apply or fully abort
	for i, j := range jobs {
		row := &catalog.KeyFrame{
			Name:       fmt.Sprintf("%s#%04d", name, j.frameIndex),
			Image:      j.jpeg,
			VideoID:    videoID,
			FrameIndex: j.frameIndex,
		}
		putDescriptors(row, j.set, j.bucket)
		id, err := e.store.InsertKeyFrame(tx, row)
		if err != nil {
			return fail(err)
		}
		res.KeyFrameIDs = append(res.KeyFrameIDs, id)
		entries[i] = &frameEntry{id: id, videoID: videoID, frameIdx: j.frameIndex, bucket: j.bucket}
	}
	if err := tx.Commit(); err != nil {
		return fail(err)
	}
	// Publish the committed key frames under one engine lock, so no
	// search sees part of the video.
	e.mu.Lock()
	for i, en := range entries {
		e.putEntry(en, jobs[i].set)
	}
	e.video(videoID).name = name
	e.mu.Unlock()
	return res, nil
}

// DeleteVideo removes a video and its key frames (admin use case). A
// missing ID fails with ErrNotFound before anything is deleted.
func (e *Engine) DeleteVideo(videoID int64) error {
	tx, err := e.store.Begin()
	if err != nil {
		return err
	}
	if _, ok, err := e.store.GetVideoInfo(tx, videoID); err != nil {
		tx.Abort()
		return err
	} else if !ok {
		tx.Abort()
		return fmt.Errorf("core: delete video %d: %w", videoID, ErrNotFound)
	}
	if err := e.store.DeleteVideo(tx, videoID); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	e.mu.Lock()
	if v := e.videos[videoID]; v != nil {
		for _, en := range v.frames {
			delete(e.byID, en.id)
			s, slot := e.shardFor(en.id), en.slot
			e.arenas[s].remove(en)
			e.cells[s].onRemove(e.arenas[s], slot)
		}
		delete(e.videos, videoID)
	}
	e.mu.Unlock()
	return nil
}

// warmCache loads every stored key frame's feature strings into parsed
// descriptor sets. It is called lazily by searches and is idempotent. The
// warm flag is checked under the read lock first so steady-state searches
// never contend on the write lock.
func (e *Engine) warmCache() error {
	e.mu.RLock()
	warm := e.warm
	e.mu.RUnlock()
	if warm {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.warm {
		return nil
	}
	err := e.store.ScanKeyFrames(nil, func(k *catalog.KeyFrame) (bool, error) {
		if e.byID[k.ID] != nil {
			return true, nil
		}
		en, set, err := entryFromRow(k)
		if err != nil {
			return false, err
		}
		e.putEntry(en, set)
		return true, nil
	})
	if err != nil {
		return err
	}
	vids, err := e.store.ListVideos(nil)
	if err != nil {
		return err
	}
	for _, v := range vids {
		e.video(v.ID).name = v.Name
	}
	e.warm = true
	return nil
}

// kindColumns maps each kind to its KEY_FRAMES text column. It is the one
// place that mapping is written: putDescriptors and storedSet, inverses of
// each other, both iterate it.
var kindColumns = [features.NumKinds]func(*catalog.KeyFrame) *string{
	features.KindGLCM:        func(k *catalog.KeyFrame) *string { return &k.GLCM },
	features.KindGabor:       func(k *catalog.KeyFrame) *string { return &k.Gabor },
	features.KindTamura:      func(k *catalog.KeyFrame) *string { return &k.Tamura },
	features.KindHistogram:   func(k *catalog.KeyFrame) *string { return &k.SCH },
	features.KindCorrelogram: func(k *catalog.KeyFrame) *string { return &k.ACC },
	features.KindRegions:     func(k *catalog.KeyFrame) *string { return &k.Regions },
	features.KindNaive:       func(k *catalog.KeyFrame) *string { return &k.Naive },
}

// putDescriptors writes a descriptor set and its §4.2 bucket into a key
// frame's descriptor columns. Ingest and re-index both store through it.
func putDescriptors(k *catalog.KeyFrame, set *features.Set, bucket rangeindex.Range) {
	k.Min, k.Max = bucket.Min, bucket.Max
	for kind, col := range kindColumns {
		*col(k) = set.Get(features.Kind(kind)).String()
	}
	k.MajorRegions = set.Regions.Major
}

// entryFromRow builds a stored key frame's cache entry and parses its
// feature strings into the set to pack.
func entryFromRow(k *catalog.KeyFrame) (*frameEntry, *features.Set, error) {
	set, err := storedSet(k)
	if err != nil {
		return nil, nil, err
	}
	return &frameEntry{
		id:       k.ID,
		videoID:  k.VideoID,
		frameIdx: k.FrameIndex,
		bucket:   k.Range(),
	}, set, nil
}

// referenceSet is the descriptor set the reference search compares for an
// entry, built afresh on every call and never from the packed arena row
// the production sweep reads (packing normalises some kinds, so the row
// cannot give the set back bit for bit): a cache-only frame's is
// regenerated by its publisher's regen, a stored row's parsed from its
// KEY_FRAMES text. Callers hold e.mu, which comes before the store's
// locks (warmCache's order).
func (e *Engine) referenceSet(en *frameEntry) (*features.Set, error) {
	if en.regen != nil {
		if set := en.regen(en.id); set != nil {
			return set, nil
		}
		return nil, fmt.Errorf("core: cache-only key frame %d regenerates no descriptor set", en.id)
	}
	k, ok, err := e.store.GetKeyFrame(nil, en.id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: cached key frame %d has no stored row", en.id)
	}
	return storedSet(k)
}

// storedSet parses a key frame row's descriptor columns; a column left
// empty is a missing descriptor.
func storedSet(k *catalog.KeyFrame) (*features.Set, error) {
	set := &features.Set{}
	for kind, col := range kindColumns {
		text := *col(k)
		if text == "" {
			continue
		}
		d, err := features.Parse(features.Kind(kind), text)
		if err != nil {
			return nil, fmt.Errorf("core: key frame %d: %w", k.ID, err)
		}
		if err := set.Put(d); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// BucketFromPlanes computes the §4.2 range bucket from shared analysis
// planes. The planes' gray histogram equals the rescaled frame's
// GrayHistogram, so the bucket is the frame's without a second rescale.
func BucketFromPlanes(p *features.Planes) rangeindex.Range { return grayBucket(&p.GrayHist) }

// grayBucket assigns the §4.2 range bucket of an analysis raster's
// 256-bin gray histogram.
func grayBucket(hist *[256]int) rangeindex.Range {
	min, max := rangeindex.AssignFaithful(hist)
	return rangeindex.Range{Min: min, Max: max}
}

func (opt *SearchOptions) kinds() []features.Kind {
	if len(opt.Kinds) == 0 {
		return features.AllKinds()
	}
	return opt.Kinds
}

// validate rejects options no search can run: a kind outside the kind
// table, a kind listed twice (it would fuse one list with itself), or
// fusion weights that do not align with the kinds or are not finite and
// non-negative (NaN and ±Inf poison every fused distance, a negative
// weight inverts its kind's ranking). Every path that scores
// a search, the reference included, checks it first, so each entry point
// returns the error instead of panicking.
func (opt *SearchOptions) validate() error {
	var seen uint32
	for _, kind := range opt.Kinds {
		if !kind.Valid() {
			return fmt.Errorf("core: unknown feature kind %d", int(kind))
		}
		if seen&(1<<kind) != 0 {
			return fmt.Errorf("core: feature kind %s listed twice", kind)
		}
		seen |= 1 << kind
	}
	n := len(opt.Kinds)
	if n == 0 {
		n = int(features.NumKinds)
	}
	if opt.Weights != nil && len(opt.Weights) != n {
		return fmt.Errorf("core: %d fusion weights for %d kinds", len(opt.Weights), n)
	}
	for _, w := range opt.Weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("core: fusion weight %v is not a finite non-negative number", w)
		}
	}
	return nil
}

// fixedScaleDistancePacked fuses per-kind distances, each divided by the
// kind's features.FixedScale, with equal weights. The query side is
// pre-packed and the stored side read from an arena slot — the same
// kernels the frame scan uses, so the DTW video search and the
// best-single-frame ablation pay no interface dispatch either. A kind
// missing on either side is skipped.
//
//cbvrvet:noalloc
func fixedScaleDistancePacked(pq *PackedQuery, ar *shardArena, slot int32) float64 {
	var sum float64
	n := 0
	for i, kind := range pq.kinds {
		qv := pq.vec[i]
		if qv == nil || !ar.hasKind(kind, slot) {
			continue
		}
		sum += features.PairDistance(kind, qv, ar.row(kind, slot)) / features.FixedScale(kind)
		n++
	}
	if n == 0 {
		return 1e9
	}
	return sum / float64(n)
}

// ExtractQuerySets is a helper for evaluation harnesses: describe a batch
// of frames in parallel and keep their descriptor sets.
func (e *Engine) ExtractQuerySets(frames []*imaging.Image) []*features.Set {
	out := make([]*features.Set, len(frames))
	parallelFor(len(frames), runtime.GOMAXPROCS(0), func(i int) {
		out[i], _ = Describe(frames[i].Source(), nil)
	})
	return out
}

// CacheSize reports the number of cached (scoreable) key frames.
func (e *Engine) CacheSize() (int, error) {
	if err := e.warmCache(); err != nil {
		return 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.byID), nil
}
