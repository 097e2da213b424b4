// The key-frame pipeline shared by ingest, re-index, query-by-frame and
// query-by-clip: one decode source, one §4.1 selection, one bounded
// extraction pool and one describe function (see DESIGN.md "Key-frame
// pipeline").
package core

import (
	"context"
	"io"
	"runtime"
	"sync"

	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/keyframe"
	"cbvr/internal/rangeindex"
)

// Describe extracts a frame's seven descriptors (§4.3–4.8) and its §4.2
// range bucket from one pooled analysis-plane pass, which rescales the
// decoded frame straight into the planes' own raster. sig, when non-nil,
// is the §4.1 selection-time naive signature of the same frame; it is
// installed instead of being sampled again, which leaves the Set
// bit-identical. Every descriptor copies out of the planes, so the result
// stays valid after they return to the pool. (p is never an argument or
// part of a returned expression, so cbvrvet's poolguard tracks it to the
// release instead of treating it as handed off.)
func Describe(src imaging.Source, sig *features.NaiveSignature) (*features.Set, rangeindex.Range) {
	p := features.AcquireSourcePlanes(src)
	defer p.Release()
	var set *features.Set
	if sig != nil {
		set = p.ExtractAllWithNaive(sig)
	} else {
		set = p.ExtractAll()
	}
	bucket := grayBucket(&p.GrayHist)
	return set, bucket
}

// kfJob carries one key frame through the extraction pool: its decoded
// frame (and, after §4.1 selection, its signature) in; the descriptor set
// and §4.2 bucket out, written by exactly one worker.
type kfJob struct {
	frameIndex int
	jpeg       []byte                   // original container record (ingest), stored verbatim
	src        imaging.Source           // decoded frame; dropped after extraction
	sig        *features.NaiveSignature // §4.1 selection-time signature, reused; nil on re-index
	set        *features.Set
	bucket     rangeindex.Range
}

// frameSource is the one decode source: container records (ingest,
// re-index) or in-memory frames (a query clip). Each NextSource checks
// the context and yields the frame as the decoder left it — a container
// record's Y'CbCr planes, never converted to RGB — which is all §4.1
// selection reads. The latest record's original JPEG bytes stay in jpeg
// until the next read, so a selection emit callback (which runs before
// it) can claim them for storage; with cw set, every record is also
// re-assembled into the staged container blob as it arrives.
type frameSource struct {
	ctx    context.Context
	cr     *cvj.Reader      // container records; nil reads frames
	cw     *cvj.Writer      // ingest: re-assembles container bytes into the staged blob
	frames []*imaging.Image // in-memory frames, consumed front to back
	jpeg   []byte           // latest record's original bytes
}

func (s *frameSource) NextSource() (imaging.Source, error) {
	if err := s.ctx.Err(); err != nil {
		return imaging.Source{}, err
	}
	if s.cr == nil {
		if len(s.frames) == 0 {
			return imaging.Source{}, io.EOF
		}
		im := s.frames[0]
		s.frames = s.frames[1:]
		return im.Source(), nil
	}
	rec, err := s.cr.NextRecord()
	if err != nil {
		return imaging.Source{}, err // io.EOF passes through to end the stream
	}
	if s.cw != nil {
		if err := s.cw.WriteJPEG(rec.JPEG); err != nil {
			return imaging.Source{}, err
		}
	}
	s.jpeg = rec.JPEG
	return rec.Source, nil
}

// describeKeyFrames runs the bounded extraction pool: produce runs on the
// calling goroutine and submits jobs, and workers describe each one while
// produce decodes the frames that follow it. The channel bound (one slot
// per worker) keeps decoding from racing ahead. Workers have no failure
// paths, so every error comes from produce, in stream order. The jobs come
// back in submission order, complete, even when produce fails; the queue
// closes and the workers drain even when produce panics.
func (e *Engine) describeKeyFrames(produce func(submit func(*kfJob)) error) ([]*kfJob, error) {
	workers := runtime.GOMAXPROCS(0)
	queue := make(chan *kfJob, workers)
	var wg sync.WaitGroup
	defer func() {
		close(queue)
		wg.Wait()
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				j.set, j.bucket = Describe(j.src, j.sig)
				j.src = imaging.Source{} // retain only descriptors (+ original JPEG)
			}
		}()
	}
	var jobs []*kfJob
	err := produce(func(j *kfJob) {
		jobs = append(jobs, j)
		queue <- j
	})
	return jobs, err
}

// selectKeyFrames runs §4.1 selection over src and describes each key
// frame as it is chosen, reusing its selection-time signature. Only key
// frames reach Describe and get an analysis raster; the frames that
// collapse into a run are never converted at all.
func (e *Engine) selectKeyFrames(src *frameSource) ([]*kfJob, error) {
	kex := keyframe.Extractor{Threshold: e.opts.KeyframeThreshold}
	return e.describeKeyFrames(func(submit func(*kfJob)) error {
		return kex.Select(src, func(k *keyframe.KeyFrame) error {
			submit(&kfJob{frameIndex: k.Index, jpeg: src.jpeg, src: k.Source, sig: k.Signature})
			return nil
		})
	})
}
