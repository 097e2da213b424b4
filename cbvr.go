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
// Retrieval runs on a concurrent sharded pipeline: the packed key-frame
// descriptors are partitioned by ID (Options.SearchShards, defaulting to
// GOMAXPROCS), each shard worker prunes and scores its own slice of the
// archive, and bounded top-K heaps select the ranking without fully
// sorting the candidate set. Clip searches score one video per worker
// from a per-video index of the same cache. Results are deterministic at
// any parallelism; set SearchOptions.Workers to bound (or serialise) an
// individual call. See DESIGN.md ("Sharded search pipeline") for the
// architecture.
//
// # Quick start
//
//	sys, err := cbvr.Open("videos.db", cbvr.Options{})
//	// … handle err …
//	defer sys.Close()
//	ctx := context.Background()
//	res, err := sys.IngestFramesCtx(ctx, "holiday", frames, 12)
//	matches, err := sys.SearchFrameCtx(ctx, queryFrame, cbvr.SearchOptions{K: 10})
//
// See the examples directory for runnable programs and DESIGN.md for the
// architecture.
package cbvr

import (
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

// System is a CBVR instance backed by one database file: the engine
// itself, whose methods (IngestVideoStreamCtx, DeleteVideo,
// ReindexVideoCtx, SearchFrameCtx, SearchVideoCtx, …) are the system's
// jobs.
type System = core.Engine

// Open opens (creating if necessary) a CBVR system at the given database
// path. The write-ahead log lives beside it at path + ".wal".
func Open(path string, opts Options) (*System, error) { return core.Open(path, opts) }

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

// Video is a generated clip: its name, category, frame rate and frames.
type Video = synthvid.Video

// GenerateCorpus renders perCategory clips of every category with
// deterministic seeds and names like "sports_03", in category-then-index
// order, so ingesting them in slice order assigns the same IDs every run.
func GenerateCorpus(perCategory int, cfg VideoConfig) []*Video {
	return synthvid.GenerateCorpus(perCategory, cfg)
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
