package core

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"io"
	"testing"

	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/keyframe"
	"cbvr/internal/synthvid"
)

// referenceRGB converts a decoder's output pixel by pixel, the way
// imaging.FromImage did before it converted Y'CbCr rows: YOffset/COffset
// and color.YCbCrToRGB per pixel. Other image types go through FromImage's
// generic path, which the fast paths never touch.
func referenceRGB(src image.Image) *imaging.Image {
	s, ok := src.(*image.YCbCr)
	if !ok {
		return imaging.FromImage(src)
	}
	b := s.Rect
	out := imaging.New(b.Dx(), b.Dy())
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			yi, ci := s.YOffset(x, y), s.COffset(x, y)
			r, g, bl := color.YCbCrToRGB(s.Y[yi], s.Cb[ci], s.Cr[ci])
			out.Set(x-b.Min.X, y-b.Min.Y, r, g, bl)
		}
	}
	return out
}

// selectionCorpus is one input to the key-frame equivalence gate: a
// container, or an in-memory clip when container is nil.
type selectionCorpus struct {
	name      string
	container []byte
	clip      []*imaging.Image
}

// source opens the corpus as the pipeline's frame source.
func (c selectionCorpus) source(t *testing.T) *frameSource {
	t.Helper()
	src := &frameSource{ctx: context.Background(), frames: c.clip}
	if c.container != nil {
		cr, err := cvj.NewReader(bytes.NewReader(c.container))
		if err != nil {
			t.Fatal(err)
		}
		src.cr = cr
	}
	return src
}

func synthClip(cat synthvid.Category, w, h, frames, shots int, seed int64) []*imaging.Image {
	return synthvid.Generate(cat, synthvid.Config{Width: w, Height: h, Frames: frames, Shots: shots, Seed: seed}).Frames
}

// grayContainer encodes a clip's luma as grayscale JPEG records, which the
// decoder returns as *image.Gray rather than Y'CbCr planes.
func grayContainer(t *testing.T, clip []*imaging.Image) []byte {
	t.Helper()
	records := make([][]byte, len(clip))
	for i, f := range clip {
		g := f.ToGray()
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, &image.Gray{Pix: g.Pix, Stride: g.W, Rect: image.Rect(0, 0, g.W, g.H)}, nil); err != nil {
			t.Fatal(err)
		}
		records[i] = buf.Bytes()
	}
	var raw bytes.Buffer
	if err := cvj.EncodeRaw(&raw, records, 12); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

func selectionCorpora(t *testing.T) []selectionCorpus {
	t.Helper()
	encode := func(clip []*imaging.Image) []byte {
		raw, err := cvj.EncodeBytes(clip, 12, 0)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var out []selectionCorpus
	for i, cat := range synthvid.AllCategories() {
		out = append(out,
			selectionCorpus{name: cat.String() + "_160x120x24", container: encode(synthClip(cat, 160, 120, 24, 3, int64(500+i)))},
			selectionCorpus{name: cat.String() + "_96x72x8", container: encode(synthClip(cat, 96, 72, 8, 2, int64(510+i)))})
	}
	return append(out,
		selectionCorpus{name: "odd_161x119", container: encode(synthClip(synthvid.Sports, 161, 119, 12, 3, 520))},
		selectionCorpus{name: "passthrough_300x300", container: encode(synthClip(synthvid.News, 300, 300, 8, 2, 521))},
		selectionCorpus{name: "downscale_640x480", container: encode(synthClip(synthvid.Nature, 640, 480, 6, 2, 522))},
		selectionCorpus{name: "gray_jpeg_160x120", container: grayContainer(t, synthClip(synthvid.Cartoon, 160, 120, 12, 3, 523))},
		selectionCorpus{name: "rgb_clip_160x120", clip: synthClip(synthvid.Movie, 160, 120, 16, 3, 524)},
		selectionCorpus{name: "rgb_clip_300x300", clip: synthClip(synthvid.Elearning, 300, 300, 8, 2, 525)},
	)
}

// referenceFrames is the path the pipeline used to take: every frame
// converted to RGB in full, then rescaled to the analysis raster.
func referenceFrames(t *testing.T, c selectionCorpus) []*imaging.Image {
	t.Helper()
	var frames []*imaging.Image
	if c.container == nil {
		for _, f := range c.clip {
			frames = append(frames, f.Rescale(features.AnalysisSize, features.AnalysisSize))
		}
		return frames
	}
	cr, err := cvj.NewReader(bytes.NewReader(c.container))
	if err != nil {
		t.Fatal(err)
	}
	for {
		f, err := cr.NextFrame()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		src, err := jpeg.Decode(bytes.NewReader(f.JPEG))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, referenceRGB(src).Rescale(features.AnalysisSize, features.AnalysisSize))
	}
}

// TestKeyFrameSelectionMatchesReference is the equivalence gate for
// decode-light selection: selecting from decoder planes (signatures by
// features.NaiveOf, a raster only per key frame, built from the planes)
// must choose the same key frames, with the same naive signatures and the
// same seven descriptors, as keyframe.Extract over fully converted and
// rescaled frames described through fresh planes — on every synthvid
// category at the benchmark's upload shapes, odd, analysis-sized and
// downscaled frames, a grayscale JPEG and in-memory RGB clips.
func TestKeyFrameSelectionMatchesReference(t *testing.T) {
	eng := openTestEngine(t)
	for _, c := range selectionCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // the engine is shared; the reference extraction is the slow part
			jobs, err := eng.selectKeyFrames(c.source(t))
			if err != nil {
				t.Fatal(err)
			}
			frames := referenceFrames(t, c)
			want, err := keyframe.Extractor{Threshold: eng.opts.KeyframeThreshold}.Extract(frames)
			if err != nil {
				t.Fatal(err)
			}
			if got, wantIdx := jobIndices(jobs), keyframe.Indices(want); fmt.Sprint(got) != fmt.Sprint(wantIdx) {
				t.Fatalf("key frames %v, reference %v", got, wantIdx)
			}
			t.Logf("%d frames, key frames %v", len(frames), jobIndices(jobs))
			// Every frame's signature and raster, not only the key frames':
			// selection decides on all of them.
			for i, s := range corpusSources(t, c) {
				if got, want := features.NaiveOf(s), features.NaiveOf(frames[i].Rescale(features.AnalysisSize, features.AnalysisSize).Source()); got != want {
					t.Errorf("frame %d: signature %s, reference %s", i, &got, &want)
				}
				p := features.AcquireSourcePlanes(s)
				if !p.Analysis.Equal(frames[i]) {
					t.Errorf("frame %d: analysis raster diverges from the reference", i)
				}
				p.Release()
			}
			for i, k := range want {
				if jobs[i].sig.String() != k.Signature.String() {
					t.Errorf("key frame %d: signature %s, reference %s", k.Index, jobs[i].sig, k.Signature)
				}
				ref := features.NewPlanes(k.Image).ExtractAll()
				for _, kind := range features.AllKinds() {
					if jobs[i].set.Get(kind).String() != ref.Get(kind).String() {
						t.Errorf("key frame %d: %v descriptor diverges from the reference", k.Index, kind)
					}
				}
			}
		})
	}
}

// corpusSources reads every frame of a corpus the way selection does:
// decoder planes for a container, RGB sources for a clip.
func corpusSources(t *testing.T, c selectionCorpus) []imaging.Source {
	t.Helper()
	var out []imaging.Source
	src := c.source(t)
	for {
		s, err := src.NextSource()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
}

func jobIndices(jobs []*kfJob) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.frameIndex
	}
	return out
}

// BenchmarkDecodeSelect measures what every frame of an upload costs
// before extraction: read the container record, JPEG-decode it, compute
// its §4.1 signature, and build the analysis raster of each key frame. The
// clip is the benchmark's upload shape (160×120, 24 frames, 3 shots).
func BenchmarkDecodeSelect(b *testing.B) {
	raw, err := cvj.EncodeBytes(synthClip(synthvid.Sports, 160, 120, 24, 3, 7), 12, 0)
	if err != nil {
		b.Fatal(err)
	}
	kex := keyframe.Extractor{}
	var raster imaging.Image
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := cvj.NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		err = kex.Select(&frameSource{ctx: context.Background(), cr: cr}, func(k *keyframe.KeyFrame) error {
			k.Source.RescaleInto(&raster, features.AnalysisSize, features.AnalysisSize)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
