// Package keyframe implements the paper's §4.1 key-frame extraction: walk
// the frame sequence in order, collapse every run of consecutive frames
// whose superficial-signature distance to the run's first frame stays
// within a threshold, and keep that first frame as the run's key frame.
//
// The paper's threshold is 800.0 over the §4.6 naive-signature distance
// (sum of 25 per-point Euclidean RGB distances).
package keyframe

import (
	"fmt"
	"io"

	"cbvr/internal/features"
	"cbvr/internal/imaging"
)

// DefaultThreshold is the paper's similarity cut-off ("if(dist > 800.0)").
const DefaultThreshold = 800.0

// FrameReader yields successive frames; it is satisfied by *cvj.Reader.
// Next returns io.EOF after the final frame.
type FrameReader interface {
	Next() (*imaging.Image, error)
}

// SourceReader yields successive decoded frames, still in their
// decoder's layout; NextSource returns io.EOF after the final frame.
type SourceReader interface {
	NextSource() (imaging.Source, error)
}

// Extractor selects key frames. The zero value uses DefaultThreshold.
type Extractor struct {
	// Threshold is the maximum naive-signature distance for two frames to
	// be considered "similar" (and thus collapsed). Values <= 0 select
	// DefaultThreshold.
	Threshold float64
}

func (e Extractor) threshold() float64 {
	if e.Threshold <= 0 {
		return DefaultThreshold
	}
	return e.Threshold
}

// KeyFrame is one selected representative frame.
type KeyFrame struct {
	// Index is the frame's position in the source video (0-based).
	Index int
	// Image is the frame itself, as Extract's slice or ExtractStream's
	// FrameReader held it. Select leaves it nil: its readers hand over
	// decoded sources, not rasters.
	Image *imaging.Image
	// Source is the decoded frame selection read.
	Source imaging.Source
	// Signature is the frame's naive signature (computed during
	// selection, retained so callers don't recompute it).
	Signature *features.NaiveSignature
	// RunLength is the number of consecutive source frames this key frame
	// represents (itself included).
	RunLength int
}

// Extract selects key frames from an in-memory frame slice: Select over
// the frames' sources, each key frame's Image the slice's frame.
func (e Extractor) Extract(frames []*imaging.Image) ([]KeyFrame, error) {
	var kfs []*KeyFrame
	src := sliceSources(frames)
	err := e.Select(&src, func(k *KeyFrame) error {
		k.Image = frames[k.Index]
		kfs = append(kfs, k)
		return nil
	})
	if err != nil || len(kfs) == 0 {
		return nil, err
	}
	out := make([]KeyFrame, len(kfs))
	for i, k := range kfs {
		out[i] = *k // RunLength is final once Select returns
	}
	return out, nil
}

// ExtractStream runs §4.1 selection over a streaming frame source, calling
// emit for each selected key frame as soon as it is chosen — before the
// next frame is read — so callers can overlap feature extraction of a key
// frame with decoding of the frames that follow it (the streamed ingest
// pipeline's shape). The emitted KeyFrame's Index, Image and Signature are
// final at emission; RunLength keeps growing in place as later frames
// collapse into the run and is only final once ExtractStream returns. An
// error from emit aborts selection. It is Select over the frames as RGB
// sources.
func (e Extractor) ExtractStream(r FrameReader, emit func(*KeyFrame) error) error {
	src := &rasterSources{r: r}
	return e.Select(src, func(k *KeyFrame) error {
		k.Image = src.last
		return emit(k)
	})
}

// Select is the §4.1 loop: it reads every frame once, computes its naive
// signature straight from the decoded source (features.NaiveOf — no RGB
// conversion, no rescale, nothing allocated), and emits each key frame,
// with its Source and Signature, before the next frame is read; a caller
// builds an analysis raster only for what it is handed. RunLength and
// errors behave as in ExtractStream.
func (e Extractor) Select(r SourceReader, emit func(*KeyFrame) error) error {
	thr := e.threshold()
	var cur *KeyFrame
	for idx := 0; ; idx++ {
		src, err := r.NextSource()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("keyframe: read frame %d: %w", idx, err)
		}
		sig := features.NaiveOf(src)
		if cur != nil && cur.Signature.Distance(&sig) <= thr {
			// Similar to the current key frame: collapse.
			cur.RunLength++
			continue
		}
		kept := sig // a copy: sig stays on the stack for collapsed frames
		cur = &KeyFrame{Index: idx, Source: src, Signature: &kept, RunLength: 1}
		if err := emit(cur); err != nil {
			return err
		}
	}
}

// rasterSources adapts a FrameReader to Select, keeping the latest frame
// for ExtractStream's KeyFrame.Image.
type rasterSources struct {
	r    FrameReader
	last *imaging.Image
}

func (s *rasterSources) NextSource() (imaging.Source, error) {
	im, err := s.r.Next()
	if err != nil {
		return imaging.Source{}, err
	}
	s.last = im
	return im.Source(), nil
}

// sliceSources adapts a frame slice to SourceReader.
type sliceSources []*imaging.Image

func (s *sliceSources) NextSource() (imaging.Source, error) {
	if len(*s) == 0 {
		return imaging.Source{}, io.EOF
	}
	im := (*s)[0]
	*s = (*s)[1:]
	return im.Source(), nil
}

// Indices returns just the source positions of the key frames.
func Indices(kfs []KeyFrame) []int {
	out := make([]int, len(kfs))
	for i, k := range kfs {
		out[i] = k.Index
	}
	return out
}
