package cvj

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"
)

func testFrames(n int) []*imaging.Image {
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Frames: n, Shots: 2, Seed: 77})
	return v.Frames
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	frames := testFrames(6)
	raw, err := EncodeBytes(frames, 15, 90)
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.FPS != 15 {
		t.Errorf("fps = %d", v.FPS)
	}
	if len(v.Frames) != len(frames) {
		t.Fatalf("frames = %d, want %d", len(v.Frames), len(frames))
	}
	for i := range frames {
		if v.Frames[i].W != frames[i].W || v.Frames[i].H != frames[i].H {
			t.Fatalf("frame %d dims changed", i)
		}
	}
}

func TestStreamingReaderCountsAndEOF(t *testing.T) {
	frames := testFrames(4)
	raw, _ := EncodeBytes(frames, 10, 0)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 || r.FramesRead() != 4 {
		t.Errorf("read %d frames (reader says %d)", n, r.FramesRead())
	}
	// Next after EOF keeps returning EOF.
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("post-EOF: %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := DecodeBytes([]byte("AVI0xxxxxxxx")); err != ErrBadMagic {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
}

func TestTruncatedStreamRejected(t *testing.T) {
	frames := testFrames(2)
	raw, _ := EncodeBytes(frames, 10, 0)
	for _, cut := range []int{5, 9, len(raw) / 2, len(raw) - 3} {
		if _, err := DecodeBytes(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestCorruptTrailerCountRejected(t *testing.T) {
	frames := testFrames(2)
	raw, _ := EncodeBytes(frames, 10, 0)
	// Trailer count is the last 4 bytes.
	raw[len(raw)-1] ^= 0x7
	if _, err := DecodeBytes(raw); err == nil {
		t.Error("corrupt trailer accepted")
	}
}

func TestCorruptFrameBytesRejected(t *testing.T) {
	frames := testFrames(1)
	raw, _ := EncodeBytes(frames, 10, 0)
	// Smash the JPEG SOI marker (first frame's payload starts at offset
	// 12 after the 8-byte header and 4-byte length prefix).
	raw[12], raw[13] = 0x00, 0x00
	if _, err := DecodeBytes(raw); err == nil {
		t.Error("corrupt JPEG accepted")
	}
}

func TestEmptyVideo(t *testing.T) {
	raw, err := EncodeBytes(nil, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Frames) != 0 {
		t.Errorf("frames = %d", len(v.Frames))
	}
}

func TestDefaultFPSApplied(t *testing.T) {
	raw, _ := EncodeBytes(testFrames(1), 0, 0)
	v, _ := DecodeBytes(raw)
	if v.FPS != 12 {
		t.Errorf("default fps = %d", v.FPS)
	}
}

// A stream cut exactly at a frame boundary used to wrap io.EOF, so
// errors.Is(err, io.EOF) callers silently accepted truncated video as a
// clean end-of-stream. It must surface as io.ErrUnexpectedEOF.
func TestTruncationAtFrameBoundaryIsUnexpectedEOF(t *testing.T) {
	frames := testFrames(2)
	raw, _ := EncodeBytes(frames, 10, 0)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Find the boundary right after the first frame record.
	f, err := r.NextFrame()
	if err != nil {
		t.Fatal(err)
	}
	boundary := 8 + 4 + len(f.JPEG) // header + length prefix + record
	cuts := map[string]int{
		"after first record": boundary,
		"inside length":      boundary + 2,
		"before trailer":     len(raw) - 6,
		"mid second record":  boundary + 10,
	}
	for name, cut := range cuts {
		_, err := DecodeBytes(raw[:cut])
		if err == nil {
			t.Fatalf("%s: truncation accepted", name)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: error %v does not wrap io.ErrUnexpectedEOF", name, err)
		}
		if errors.Is(err, io.EOF) {
			t.Errorf("%s: error %v wraps io.EOF — truncation reads as clean end-of-stream", name, err)
		}
	}
}

// fps values beyond the uint16 header field used to wrap around silently
// (65536 stored as 0). They must be rejected at encode time.
func TestEncodeFPSRange(t *testing.T) {
	frames := testFrames(1)
	if _, err := EncodeBytes(frames, MaxFPS, 0); err != nil {
		t.Fatalf("fps %d rejected: %v", MaxFPS, err)
	}
	v, err := DecodeBytes(mustEncode(t, frames, MaxFPS))
	if err != nil {
		t.Fatal(err)
	}
	if v.FPS != MaxFPS {
		t.Errorf("fps %d stored as %d", MaxFPS, v.FPS)
	}
	if _, err := EncodeBytes(frames, MaxFPS+1, 0); err == nil {
		t.Errorf("fps %d accepted", MaxFPS+1)
	}
	if _, err := NewWriter(io.Discard, -1); err == nil {
		t.Error("negative fps accepted by NewWriter")
	}
	if _, err := EncodeRawBytes([][]byte{{0xff}}, MaxFPS+1); err == nil {
		t.Error("EncodeRaw accepted out-of-range fps")
	}
}

func mustEncode(t *testing.T, frames []*imaging.Image, fps int) []byte {
	t.Helper()
	raw, err := EncodeBytes(frames, fps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// NextFrame must expose the exact record bytes: re-assembling a container
// from the streamed records reproduces it bit for bit, and the decoded
// image matches an independent decode of those bytes.
func TestNextFrameRawRecordsRoundTrip(t *testing.T) {
	frames := testFrames(5)
	raw := mustEncode(t, frames, 24)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt bytes.Buffer
	w, err := NewWriter(&rebuilt, r.FPS())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		f, err := r.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Index != i {
			t.Fatalf("frame %d reports index %d", i, f.Index)
		}
		im, err := imaging.DecodeJPEG(bytes.NewReader(f.JPEG))
		if err != nil {
			t.Fatalf("frame %d JPEG bytes do not decode: %v", i, err)
		}
		if !im.Equal(f.Image) {
			t.Fatalf("frame %d decoded image differs from record bytes", i)
		}
		if err := w.WriteJPEG(f.JPEG); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt.Bytes(), raw) {
		t.Fatal("re-assembled container differs from original")
	}
}

func TestWriterRejectsEmptyRecordAndWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteJPEG(nil); err == nil {
		t.Error("empty record accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteJPEG([]byte{0xff}); err == nil {
		t.Error("write after Close accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// TestReaderRefusesHugeDeclaredFrame carries the decoder's header check
// through the container read path: a record whose JPEG header declares
// 30000×30000 fails on both reads as ErrFormat naming the frame, before
// anything of that size is allocated.
func TestReaderRefusesHugeDeclaredFrame(t *testing.T) {
	var small bytes.Buffer
	im := imaging.New(16, 16)
	im.Fill(90, 140, 200)
	if err := im.EncodeJPEG(&small, 0); err != nil {
		t.Fatal(err)
	}
	huge := bytes.Clone(small.Bytes())
	i := bytes.Index(huge, []byte{0xff, 0xc0}) // baseline SOF: marker, length, precision, height, width
	if i < 0 {
		t.Fatal("no SOF0 marker")
	}
	binary.BigEndian.PutUint16(huge[i+5:], 30000)
	binary.BigEndian.PutUint16(huge[i+7:], 30000)
	raw, err := EncodeRawBytes([][]byte{small.Bytes(), huge}, 12)
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]func(*Reader) error{
		"NextFrame":  func(r *Reader) error { _, err := r.NextFrame(); return err },
		"NextRecord": func(r *Reader) error { _, err := r.NextRecord(); return err },
	}
	for name, read := range reads {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := read(r); err != nil {
			t.Fatalf("%s: frame 0: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = read(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "frame 1") || !strings.Contains(err.Error(), "pixel limit") {
			t.Errorf("%s: err = %v, want ErrFormat naming frame 1 and the pixel limit", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s: refusing the frame allocated %d bytes, want < 1 MB", name, d)
		}
	}
}
