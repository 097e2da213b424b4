package loadgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"cbvr/internal/cvj"
	"cbvr/internal/synthvid"
)

// Shape sizes the synthetic clips of one input set.
type Shape struct {
	Width, Height int
	Frames, Shots int
	Noise         float64
}

// Container is one encoded CVJ video, ready to upload.
type Container struct {
	Name     string // "<category>_<nn>", which eval.CategoryOfVideoName parses
	Category synthvid.Category
	Bytes    []byte
}

// QueryFrame is one held-out query image as the JPEG bytes a client posts.
type QueryFrame struct {
	Category synthvid.Category
	JPEG     []byte
}

// Seed strides keep the clips of one input set apart from each other and
// the held-out query clips apart from every corpus clip.
const (
	strideIndex    = 7919
	strideCategory = 104729
	strideSeed     = 15485863
	heldOutOffset  = 1_000_003
)

func (s Shape) config(seed int64, cat synthvid.Category, i int) synthvid.Config {
	return synthvid.Config{
		Width: s.Width, Height: s.Height, Frames: s.Frames, Shots: s.Shots, Noise: s.Noise,
		Seed: 1 + seed*strideSeed + int64(i)*strideIndex + int64(cat)*strideCategory,
	}
}

// each runs fn(0..n-1) on as many goroutines as there are processors.
// Every fn(i) writes only its own slot, so the output does not depend on
// the schedule.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Containers renders perCategory clips of every category and encodes each
// as a CVJ container. The bytes are a pure function of (seed, shape).
func Containers(seed int64, perCategory int, shape Shape) ([]Container, error) {
	cats := synthvid.AllCategories()
	out := make([]Container, len(cats)*perCategory)
	err := each(len(out), func(n int) error {
		cat, i := cats[n/perCategory], n%perCategory
		v := synthvid.Generate(cat, shape.config(seed, cat, i))
		b, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
		if err != nil {
			return fmt.Errorf("loadgen: encode %s clip %d: %w", cat, i, err)
		}
		out[n] = Container{Name: fmt.Sprintf("%s_%02d", cat, i), Category: cat, Bytes: b}
		return nil
	})
	return out, err
}

// QueryFrames renders clipsPerCategory held-out clips of every category
// (seeds disjoint from Containers at the same seed) and takes perClip
// evenly spaced frames of each as JPEG query images.
func QueryFrames(seed int64, clipsPerCategory, perClip int, shape Shape) ([]QueryFrame, error) {
	cats := synthvid.AllCategories()
	out := make([]QueryFrame, len(cats)*clipsPerCategory*perClip)
	err := each(len(cats)*clipsPerCategory, func(n int) error {
		cat, i := cats[n/clipsPerCategory], n%clipsPerCategory
		cfg := shape.config(seed, cat, i)
		cfg.Seed += heldOutOffset
		v := synthvid.Generate(cat, cfg)
		for f := 0; f < perClip; f++ {
			var buf bytes.Buffer
			frame := v.Frames[(2*f+1)*len(v.Frames)/(2*perClip)]
			if err := frame.EncodeJPEG(&buf, 0); err != nil {
				return fmt.Errorf("loadgen: encode %s query %d/%d: %w", cat, i, f, err)
			}
			out[n*perClip+f] = QueryFrame{Category: cat, JPEG: buf.Bytes()}
		}
		return nil
	})
	return out, err
}

// Order returns the seeded order in which one client walks n inputs: a
// permutation of 0..n-1 that differs per client, so two clients do not
// send the same input at the same moment.
func Order(seed int64, client, n int) []int {
	return rand.New(rand.NewSource(seed*strideSeed + int64(client)*strideIndex + 1)).Perm(n)
}
