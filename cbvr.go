// Package cbvr is a content-based video retrieval system, a Go
// reproduction of Patel & Meshram, "Content Based Video Retrieval" (IJMA
// 4(5), 2012). It stores videos and their automatically selected key
// frames in an embedded database, indexes each key frame with seven visual
// descriptors (colour histogram, GLCM, Gabor, Tamura, auto colour
// correlogram, naive signature, region statistics) plus a histogram
// range-finder bucket, and answers query-by-example searches by fusing
// per-feature distances — the paper's "Combined" retrieval, which its
// Table 1 shows beating every individual feature.
//
// Retrieval runs on a concurrent sharded pipeline: the key-frame cache is
// partitioned by ID (Options.SearchShards, defaulting to GOMAXPROCS),
// each shard worker prunes and scores its own slice of the archive, and
// bounded top-K heaps select the ranking without fully sorting the
// candidate set. Results are deterministic at any parallelism; set
// SearchOptions.Workers to bound (or serialise) an individual call. See
// DESIGN.md ("Sharded search pipeline") for the architecture.
//
// # Quick start
//
//	sys, err := cbvr.Open("videos.db", cbvr.Options{})
//	// … handle err …
//	defer sys.Close()
//	res, err := sys.IngestFrames("holiday", frames, 12)
//	matches, err := sys.Search(queryFrame, cbvr.SearchOptions{K: 10})
//
// See the examples directory for runnable programs, DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper reproduction.
package cbvr

import (
	"context"
	"io"

	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
)

// Image is an 8-bit RGB raster; construct one with NewImage, FromJPEG or
// the synthetic generators.
type Image = imaging.Image

// NewImage allocates a black w×h image.
func NewImage(w, h int) *Image { return imaging.New(w, h) }

// FromJPEG decodes JPEG bytes into an Image.
func FromJPEG(r io.Reader) (*Image, error) { return imaging.DecodeJPEG(r) }

// Options configures a System. The zero value is ready to use.
type Options = core.Options

// SearchOptions configures one retrieval call.
type SearchOptions = core.SearchOptions

// Match is one ranked key-frame result.
type Match = core.Match

// VideoMatch is one ranked video-level result.
type VideoMatch = core.VideoMatch

// IngestResult summarises an ingested video.
type IngestResult = core.IngestResult

// ReindexResult summarises one re-indexed video.
type ReindexResult = core.ReindexResult

// StoreOptions tunes the embedded database engine.
type StoreOptions = vstore.Options

// FeatureKind identifies one of the seven descriptors.
type FeatureKind = features.Kind

// The seven feature kinds, in the paper's Table 1 column order.
const (
	FeatureGLCM            = features.KindGLCM
	FeatureGabor           = features.KindGabor
	FeatureTamura          = features.KindTamura
	FeatureHistogram       = features.KindHistogram
	FeatureCorrelogram     = features.KindCorrelogram
	FeatureRegions         = features.KindRegions
	FeatureNaive           = features.KindNaive
	NumFeatures            = int(features.NumKinds)
	DefaultJPEGQuality     = imaging.DefaultJPEGQuality
	KeyframeThresholdPaper = 800.0
)

// System is a CBVR instance backed by one database file.
type System struct {
	eng *core.Engine
}

// Open opens (creating if necessary) a CBVR system at the given database
// path. The write-ahead log lives beside it at path + ".wal".
func Open(path string, opts Options) (*System, error) {
	eng, err := core.Open(path, opts)
	if err != nil {
		return nil, err
	}
	return &System{eng: eng}, nil
}

// Close flushes and closes the database.
func (s *System) Close() error { return s.eng.Close() }

// Engine exposes the underlying engine for advanced use (evaluation
// harnesses, admin operations).
func (s *System) Engine() *core.Engine { return s.eng }

// Degraded reports the store's sticky read-only state: nil while healthy,
// otherwise the write fault that forced it read-only (reads keep serving
// the committed snapshot; mutations fail until the process restarts).
func (s *System) Degraded() error { return s.eng.Degraded() }

// IngestVideo stores a CVJ video container: frames are decoded, key frames
// selected (threshold 800 over the naive signature), all seven features
// extracted, the range bucket assigned, and everything committed in one
// transaction.
func (s *System) IngestVideo(name string, container []byte) (*IngestResult, error) {
	return s.eng.IngestVideo(name, container)
}

// IngestVideoStream ingests a CVJ container directly from a byte stream:
// frames are decoded one at a time, key frames are selected as they
// arrive, and feature extraction overlaps the decode of later frames.
// Non-key frames are never retained, so ingest memory is proportional to
// the number of key frames plus the compressed container bytes (stored as
// the VIDEO blob) — never the number of decoded frames. Use this for
// uploads and files instead of buffering whole decoded clips.
func (s *System) IngestVideoStream(name string, r io.Reader) (*IngestResult, error) {
	return s.eng.IngestVideoStream(name, r)
}

// IngestVideoStreamCtx is IngestVideoStream under a context: cancellation
// is honoured within one decode iteration, staged blob pages are discarded
// and nothing commits. Use it to tie an ingest to a client connection or a
// shutdown signal.
func (s *System) IngestVideoStreamCtx(ctx context.Context, name string, r io.Reader) (*IngestResult, error) {
	return s.eng.IngestVideoStreamCtx(ctx, name, r)
}

// IngestFrames encodes raw frames as a CVJ container and ingests it.
func (s *System) IngestFrames(name string, frames []*Image, fps int) (*IngestResult, error) {
	return s.eng.IngestFrames(name, frames, fps)
}

// IngestFramesCtx is IngestFrames under a context: cancellation aborts
// within one frame and commits nothing for the in-flight video.
func (s *System) IngestFramesCtx(ctx context.Context, name string, frames []*Image, fps int) (*IngestResult, error) {
	return s.eng.IngestFramesCtx(ctx, name, frames, fps)
}

// DeleteVideo removes a video and its key frames (the paper's
// administrator role).
func (s *System) DeleteVideo(videoID int64) error { return s.eng.DeleteVideo(videoID) }

// ReindexVideo re-extracts every descriptor of a stored video from its
// stored key-frame stream and replaces the feature rows transactionally —
// no re-upload, and the video stays searchable (old rows) until the new
// rows commit. Run it after the extraction code changes.
func (s *System) ReindexVideo(videoID int64) (*ReindexResult, error) {
	return s.eng.ReindexVideo(videoID)
}

// ReindexVideoCtx is ReindexVideo under a context: cancellation between
// stream records leaves the existing feature rows untouched.
func (s *System) ReindexVideoCtx(ctx context.Context, videoID int64) (*ReindexResult, error) {
	return s.eng.ReindexVideoCtx(ctx, videoID)
}

// ReindexAll re-indexes every stored video in V_ID order.
func (s *System) ReindexAll() ([]*ReindexResult, error) { return s.eng.ReindexAll() }

// ReindexAllCtx is ReindexAll under a context. Videos rebuilt before the
// cancellation stay rebuilt (each commits independently); the interrupted
// one is left on its old rows.
func (s *System) ReindexAllCtx(ctx context.Context) ([]*ReindexResult, error) {
	return s.eng.ReindexAllCtx(ctx)
}

// Search ranks stored key frames against a query frame. Scoring fans out
// across the engine's cache shards; it is safe to call concurrently with
// other searches and with ingestion.
func (s *System) Search(query *Image, opts SearchOptions) ([]Match, error) {
	return s.eng.SearchFrame(query, opts)
}

// SearchCtx is Search under a context: cancellation stops the shard scan
// between shards and returns the context's error.
func (s *System) SearchCtx(ctx context.Context, query *Image, opts SearchOptions) ([]Match, error) {
	return s.eng.SearchFrameCtx(ctx, query, opts)
}

// SearchVideo ranks stored videos against a query clip using
// dynamic-programming sequence alignment over key-frame descriptors.
func (s *System) SearchVideo(queryFrames []*Image, opts SearchOptions) ([]VideoMatch, error) {
	return s.eng.SearchVideo(queryFrames, opts)
}

// SearchVideoCtx is SearchVideo under a context: cancellation stops the
// ranking between per-video alignments and returns the context's error.
func (s *System) SearchVideoCtx(ctx context.Context, queryFrames []*Image, opts SearchOptions) ([]VideoMatch, error) {
	return s.eng.SearchVideoCtx(ctx, queryFrames, opts)
}

// EncodeVideo packs frames into the CVJ container format (the system's
// stand-in for MJPEG/AVI files). quality <= 0 selects the default.
func EncodeVideo(w io.Writer, frames []*Image, fps, quality int) error {
	return cvj.Encode(w, frames, fps, quality)
}

// DecodeVideo unpacks a CVJ container.
func DecodeVideo(r io.Reader) (fps int, frames []*Image, err error) {
	v, err := cvj.Decode(r)
	if err != nil {
		return 0, nil, err
	}
	return v.FPS, v.Frames, nil
}

// Category identifies a synthetic-video genre.
type Category = synthvid.Category

// The synthetic-corpus genres (the paper's archive.org categories).
const (
	CategoryElearning = synthvid.Elearning
	CategorySports    = synthvid.Sports
	CategoryCartoon   = synthvid.Cartoon
	CategoryMovie     = synthvid.Movie
	CategoryNews      = synthvid.News
	CategoryNature    = synthvid.Nature
)

// VideoConfig controls synthetic video generation.
type VideoConfig = synthvid.Config

// GenerateVideo renders a deterministic synthetic clip of the given
// category — the repository's substitute for the paper's archive.org
// downloads.
func GenerateVideo(cat Category, cfg VideoConfig) (name string, frames []*Image, fps int) {
	v := synthvid.Generate(cat, cfg)
	return v.Name, v.Frames, v.FPS
}

// GenerateCorpus renders perCategory clips of every category with
// deterministic seeds and names like "sports_03".
func GenerateCorpus(perCategory int, cfg VideoConfig) map[string][]*Image {
	out := make(map[string][]*Image)
	for _, v := range synthvid.GenerateCorpus(perCategory, cfg) {
		out[v.Name] = v.Frames
	}
	return out
}

// DescribeFrame extracts all seven descriptors of a frame and returns
// their paper-format strings keyed by feature kind, plus the §4.2 range
// bucket — the output shown in the paper's Fig. 8. The descriptors and
// the bucket come from one shared analysis-plane pass (one rescale, one
// gray conversion for everything), the same one ingest and search run.
func DescribeFrame(im *Image) (strings map[FeatureKind]string, min, max int) {
	set, b := core.Describe(im.Source(), nil)
	strings = make(map[FeatureKind]string, NumFeatures)
	for _, k := range features.AllKinds() {
		if d := set.Get(k); d != nil {
			strings[k] = d.String()
		}
	}
	return strings, b.Min, b.Max
}
