package imaging

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

// hugeSOFJPEG encodes a real 16×16 JPEG, then patches its SOF header to
// declare 30000×30000: a ~700-byte file that asks the decoder for a
// 900-megapixel raster.
func hugeSOFJPEG(t *testing.T) []byte {
	t.Helper()
	im := New(16, 16)
	im.Fill(90, 140, 200)
	var buf bytes.Buffer
	if err := im.EncodeJPEG(&buf, 0); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	i := bytes.Index(b, []byte{0xff, 0xc0}) // baseline SOF: marker, length, precision, height, width
	if i < 0 {
		t.Fatal("no SOF0 marker")
	}
	binary.BigEndian.PutUint16(b[i+5:], 30000)
	binary.BigEndian.PutUint16(b[i+7:], 30000)
	return b
}

// TestDecodeJPEGRefusesHugeDeclaredSize pins the header check: a frame
// whose SOF declares more than maxDecodePixels fails with the size error
// before the decoder allocates for it, through a seekable reader and
// through a plain stream alike.
func TestDecodeJPEGRefusesHugeDeclaredSize(t *testing.T) {
	huge := hugeSOFJPEG(t)
	for _, tc := range []struct {
		name string
		r    io.Reader
	}{
		{"seekable", bytes.NewReader(huge)},
		{"stream", struct{ io.Reader }{bytes.NewReader(huge)}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := DecodeJPEG(tc.r)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "pixel limit") {
			t.Fatalf("%s: DecodeJPEG err = %v, want the pixel-limit error", tc.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s: refusing the frame allocated %d bytes, want < 1 MB", tc.name, d)
		}
	}
}

// TestDecodeJPEGAfterHeaderCheck pins that reading the header first loses
// nothing: a seekable reader positioned mid-buffer and a plain stream both
// decode the same pixels as the standard decoder.
func TestDecodeJPEGAfterHeaderCheck(t *testing.T) {
	src := New(40, 30)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			src.Set(x, y, uint8(x*6), uint8(y*8), uint8(x*y))
		}
	}
	var buf bytes.Buffer
	if err := src.EncodeJPEG(&buf, 90); err != nil {
		t.Fatal(err)
	}
	want, err := DecodeJPEG(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	prefixed := bytes.NewReader(append([]byte("skip"), buf.Bytes()...))
	prefixed.Seek(4, io.SeekStart)
	for name, r := range map[string]io.Reader{
		"seekable at offset": prefixed,
		"stream":             struct{ io.Reader }{bytes.NewReader(buf.Bytes())},
	} {
		got, err := DecodeJPEG(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: pixels differ from a direct decode", name)
		}
	}
}
