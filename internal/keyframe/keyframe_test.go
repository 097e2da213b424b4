package keyframe

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"
)

func solidFrame(r, g, b uint8) *imaging.Image {
	im := imaging.New(40, 30)
	im.Fill(r, g, b)
	return im
}

func TestCollapsesIdenticalFrames(t *testing.T) {
	frames := []*imaging.Image{
		solidFrame(10, 10, 10),
		solidFrame(10, 10, 10),
		solidFrame(10, 10, 10),
	}
	kfs, err := Extractor{}.Extract(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs) != 1 {
		t.Fatalf("key frames = %d, want 1", len(kfs))
	}
	if kfs[0].Index != 0 || kfs[0].RunLength != 3 {
		t.Errorf("key frame %+v", kfs[0])
	}
}

func TestSplitsOnSceneChange(t *testing.T) {
	frames := []*imaging.Image{
		solidFrame(0, 0, 0),
		solidFrame(0, 0, 0),
		solidFrame(255, 255, 255), // hard cut
		solidFrame(255, 255, 255),
	}
	kfs, err := Extractor{}.Extract(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs) != 2 {
		t.Fatalf("key frames = %d, want 2", len(kfs))
	}
	if kfs[0].Index != 0 || kfs[1].Index != 2 {
		t.Errorf("indices %d, %d", kfs[0].Index, kfs[1].Index)
	}
	if kfs[0].RunLength != 2 || kfs[1].RunLength != 2 {
		t.Errorf("run lengths %d, %d", kfs[0].RunLength, kfs[1].RunLength)
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// A higher threshold can only produce fewer or equal key frames.
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{Frames: 30, Shots: 4, Seed: 5})
	var prev int
	for i, thr := range []float64{100, 400, DefaultThreshold, 3000, 20000} {
		kfs, err := Extractor{Threshold: thr}.Extract(v.Frames)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(kfs) > prev {
			t.Errorf("threshold %g produced more key frames (%d) than a lower one (%d)", thr, len(kfs), prev)
		}
		prev = len(kfs)
	}
}

func TestRunLengthsSumToFrameCount(t *testing.T) {
	v := synthvid.Generate(synthvid.Movie, synthvid.Config{Frames: 25, Shots: 3, Seed: 6})
	kfs, err := Extractor{}.Extract(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, k := range kfs {
		sum += k.RunLength
	}
	if sum != len(v.Frames) {
		t.Errorf("run lengths sum %d, want %d", sum, len(v.Frames))
	}
	// Indices strictly increasing and first is 0.
	if kfs[0].Index != 0 {
		t.Error("first key frame is not frame 0")
	}
	for i := 1; i < len(kfs); i++ {
		if kfs[i].Index <= kfs[i-1].Index {
			t.Error("key frame indices not increasing")
		}
	}
}

func TestShotCutsProduceKeyFrames(t *testing.T) {
	// With multiple distinct shots, expect more than one key frame at the
	// paper threshold.
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Frames: 40, Shots: 5, Seed: 7})
	kfs, err := Extractor{}.Extract(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs) < 2 {
		t.Errorf("only %d key frames across 5 shots", len(kfs))
	}
	if len(kfs) == len(v.Frames) {
		t.Errorf("no compression: every frame kept")
	}
}

func TestEmptyInput(t *testing.T) {
	kfs, err := Extractor{}.Extract(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs) != 0 {
		t.Errorf("key frames from empty input: %d", len(kfs))
	}
}

// sliceReader adapts a frame slice to FrameReader.
type sliceReader struct {
	frames []*imaging.Image
	pos    int
}

func (s *sliceReader) Next() (*imaging.Image, error) {
	if s.pos >= len(s.frames) {
		return nil, io.EOF
	}
	im := s.frames[s.pos]
	s.pos++
	return im, nil
}

type failingReader struct{ n int }

func (f *failingReader) Next() (*imaging.Image, error) {
	if f.n == 0 {
		f.n++
		return solidFrame(1, 2, 3), nil
	}
	return nil, errors.New("disk on fire")
}

func TestReaderErrorPropagates(t *testing.T) {
	err := Extractor{}.ExtractStream(&failingReader{}, func(*KeyFrame) error { return nil })
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("want propagation, got %v", err)
	}
}

func TestIndicesHelper(t *testing.T) {
	frames := []*imaging.Image{solidFrame(0, 0, 0), solidFrame(255, 255, 255)}
	kfs, _ := Extractor{}.Extract(frames)
	idx := Indices(kfs)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("indices %v", idx)
	}
}

func TestSignatureRetained(t *testing.T) {
	kfs, _ := Extractor{}.Extract([]*imaging.Image{solidFrame(9, 9, 9)})
	if kfs[0].Signature == nil {
		t.Error("signature not retained")
	}
}

// eventReader wraps a sliceReader and logs each read so tests can verify
// emission interleaves with decoding.
type eventReader struct {
	inner  FrameReader
	events *[]string
	next   int
}

func (r *eventReader) Next() (*imaging.Image, error) {
	im, err := r.inner.Next()
	if err == nil {
		*r.events = append(*r.events, fmt.Sprintf("read %d", r.next))
		r.next++
	}
	return im, err
}

// TestExtractStreamMatchesExtract pins the streaming emission path to the
// batch extractor: same indices, signatures and final run lengths.
func TestExtractStreamMatchesExtract(t *testing.T) {
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{Frames: 36, Shots: 5, Seed: 21})
	want, err := (Extractor{}).Extract(v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	var got []*KeyFrame
	err = (Extractor{}).ExtractStream(&sliceReader{frames: v.Frames}, func(k *KeyFrame) error {
		got = append(got, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream emitted %d key frames, batch selected %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index {
			t.Errorf("key frame %d: index %d != %d", i, got[i].Index, want[i].Index)
		}
		if got[i].RunLength != want[i].RunLength {
			t.Errorf("key frame %d: run length %d != %d", i, got[i].RunLength, want[i].RunLength)
		}
		if got[i].Signature.String() != want[i].Signature.String() {
			t.Errorf("key frame %d: signature diverges", i)
		}
		if !got[i].Image.Equal(want[i].Image) {
			t.Errorf("key frame %d: image diverges", i)
		}
	}
}

// TestExtractStreamEmitsBeforeNextRead verifies the pipelining contract: a
// key frame is handed to emit before the following frame is decoded.
func TestExtractStreamEmitsBeforeNextRead(t *testing.T) {
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Frames: 24, Shots: 4, Seed: 22})
	var events []string
	r := &eventReader{inner: &sliceReader{frames: v.Frames}, events: &events}
	err := (Extractor{}).ExtractStream(r, func(k *KeyFrame) error {
		events = append(events, fmt.Sprintf("emit %d", k.Index))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		var idx int
		if n, _ := fmt.Sscanf(ev, "emit %d", &idx); n != 1 {
			continue
		}
		if i == 0 || events[i-1] != fmt.Sprintf("read %d", idx) {
			t.Fatalf("key frame %d emitted out of order: %v", idx, events[max(0, i-2):i+1])
		}
	}
	if len(events) < 2 || events[0] != "read 0" || events[1] != "emit 0" {
		t.Fatalf("frame 0 not emitted immediately: %v", events[:2])
	}
}

// TestExtractStreamEmitErrorAborts checks that an emit error stops
// selection and propagates.
func TestExtractStreamEmitErrorAborts(t *testing.T) {
	v := synthvid.Generate(synthvid.News, synthvid.Config{Frames: 16, Shots: 3, Seed: 23})
	sentinel := errors.New("stop")
	var emitted int
	err := (Extractor{}).ExtractStream(&sliceReader{frames: v.Frames}, func(k *KeyFrame) error {
		emitted++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("emit error not propagated: %v", err)
	}
	if emitted != 1 {
		t.Fatalf("selection continued after emit error (%d emissions)", emitted)
	}
}
