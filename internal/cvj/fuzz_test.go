package cvj

import (
	"bytes"
	"errors"
	"image"
	"image/jpeg"
	"io"
	"testing"

	"cbvr/internal/imaging"
)

// fuzzSeedContainers encodes small but fully valid containers (plus
// targeted truncations) as the fuzz corpus.
func fuzzSeedContainers(f *testing.F) {
	im1 := imaging.New(8, 6)
	im1.Fill(200, 40, 40)
	im2 := imaging.New(8, 6)
	im2.Fill(10, 180, 90)
	valid, err := EncodeBytes([]*imaging.Image{im1, im2}, 12, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn trailer
	f.Add(valid[:9])            // torn first frame length
	empty, err := EncodeBytes(nil, 10, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte(Magic))
	f.Add([]byte{})
	// An odd-sized noisy frame beside a grayscale record: 4:2:0 chroma
	// edges, and a decoder output that is not Y'CbCr.
	odd := imaging.New(13, 7)
	for i := range odd.Pix {
		odd.Pix[i] = uint8(i * 37)
	}
	var oddJPEG, grayJPEG bytes.Buffer
	if err := odd.EncodeJPEG(&oddJPEG, 0); err != nil {
		f.Fatal(err)
	}
	if err := jpeg.Encode(&grayJPEG, image.NewGray(image.Rect(0, 0, 5, 3)), nil); err != nil {
		f.Fatal(err)
	}
	mixed, err := encodeRawBytes([][]byte{oddJPEG.Bytes(), grayJPEG.Bytes()}, 12)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
}

// drain reads a container to its end through NextFrame and, separately,
// through NextRecord, keeping everything each read produced.
func drain(data []byte) (frames []*Frame, recs []Record, fps int, frameErr, recErr error) {
	cr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, 0, err, err
	}
	fps = cr.FPS()
	for {
		fr, err := cr.NextFrame()
		if err != nil {
			frameErr = err
			break
		}
		frames = append(frames, fr)
	}
	cr, _ = NewReader(bytes.NewReader(data)) // the same header opened above
	for {
		rec, err := cr.NextRecord()
		if err != nil {
			recErr = err
			break
		}
		recs = append(recs, rec)
	}
	return frames, recs, fps, frameErr, recErr
}

// FuzzCVJReader feeds arbitrary bytes to the container reader: malformed
// magic, headers, frame lengths, JPEG payloads, terminators and trailers
// must all surface as errors, never as panics — this is the path untrusted
// uploads travel. The two reads must agree on every input: NextRecord
// (decoder planes, what ingest selects from) and NextFrame (RGB) fail the
// same way (same error, ErrFormat or not) after the same frames, and each
// record's planes convert, rescale and window-sum to exactly the frame's
// pixels. When a container parses cleanly end to end, its records must
// re-assemble (EncodeRaw) into a container that parses to the same frame
// count, the round trip streamed ingest relies on.
func FuzzCVJReader(f *testing.F) {
	fuzzSeedContainers(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, recs, fps, frameErr, recErr := drain(data)
		if frameErr.Error() != recErr.Error() || errors.Is(frameErr, ErrFormat) != errors.Is(recErr, ErrFormat) {
			t.Fatalf("NextFrame failed with %v, NextRecord with %v", frameErr, recErr)
		}
		if len(frames) != len(recs) {
			t.Fatalf("NextFrame read %d frames, NextRecord %d", len(frames), len(recs))
		}
		dst := &imaging.Image{}
		for i, fr := range frames {
			rec := recs[i]
			if rec.Index != fr.Index || !bytes.Equal(rec.JPEG, fr.JPEG) || !rec.Source.Image().Equal(fr.Image) {
				t.Fatalf("frame %d: record and frame disagree", i)
			}
			w, h := 2*fr.Image.W+1, fr.Image.H/2+1
			if !rec.Source.RescaleInto(dst, w, h).Equal(fr.Image.Rescale(w, h)) {
				t.Fatalf("frame %d: planes rescale to other pixels than the RGB frame", i)
			}
			win := image.Rect(1, 0, w-1, h)
			var want [3]int
			for y := win.Min.Y; y < win.Max.Y; y++ {
				for x := win.Min.X; x < win.Max.X; x++ {
					r, g, b := dst.At(x, y)
					want[0], want[1], want[2] = want[0]+int(r), want[1]+int(g), want[2]+int(b)
				}
			}
			if got := rec.Source.WindowSum(w, h, win); got != want {
				t.Fatalf("frame %d: window sum %v on planes, %v on the RGB rescale", i, got, want)
			}
		}
		if frameErr != io.EOF {
			return // malformed input rejected cleanly
		}
		// Clean end: the records must round-trip.
		records := make([][]byte, len(frames))
		for i, fr := range frames {
			records[i] = fr.JPEG
		}
		raw, err := encodeRawBytes(records, fps)
		if err != nil {
			t.Fatalf("valid records failed to re-encode: %v", err)
		}
		cr2, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded container rejected: %v", err)
		}
		n := 0
		for {
			if _, err := cr2.NextFrame(); err != nil {
				if err != io.EOF {
					t.Fatalf("re-encoded container frame %d: %v", n, err)
				}
				break
			}
			n++
		}
		if n != len(records) {
			t.Fatalf("round trip decoded %d frames, want %d", n, len(records))
		}
	})
}
