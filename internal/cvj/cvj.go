// Package cvj implements a minimal MJPEG-style video container ("CVJ" —
// Container of Video JPEGs). It substitutes for the MPEG/AVI clips the
// paper downloads from archive.org: a CVJ file is a real binary artefact
// (magic, header, length-prefixed JPEG frames, trailer) that can be stored
// as a BLOB in the VIDEO_STORE table and decoded back into frames.
//
// The streaming Reader is the repository's "video to jpeg converter"
// (paper §4.1 input: "Frames of video extracted by video to jpeg
// converter").
//
// File layout (all integers big-endian):
//
//	offset 0: magic "CVJ1" (4 bytes)
//	offset 4: uint16 version (currently 1)
//	offset 6: uint16 fps
//	then, per frame: uint32 length, followed by <length> JPEG bytes
//	terminator: uint32 0
//	trailer: uint32 frame count (must match the number of frames read)
package cvj

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cbvr/internal/imaging"
)

// Magic identifies a CVJ stream.
const Magic = "CVJ1"

// Version is the current container version.
const Version = 1

// MaxFPS is the largest frame rate the uint16 header field can carry.
// Encode and NewWriter reject larger values instead of silently wrapping
// them around (fps 65536 used to be stored as 0).
const MaxFPS = 65535

// maxFrameSize bounds a single frame record to guard against corrupt
// headers when decoding untrusted bytes.
const maxFrameSize = 64 << 20

// ErrFormat is matched (errors.Is) by every error the Reader produces for
// a malformed or truncated container: bad magic, unsupported version,
// corrupt record lengths, trailer mismatches, undecodable frame JPEGs and
// streams that end mid-record. It lets serving layers classify "the bytes
// the client sent are not a valid container" (HTTP 400) apart from
// storage and I/O faults (HTTP 500) without string matching.
var ErrFormat = errors.New("cvj: invalid container")

// formatError tags a reader-side error as a container-format problem while
// preserving its wrapped cause (io.ErrUnexpectedEOF stays matchable).
type formatError struct{ err error }

func (e *formatError) Error() string        { return e.err.Error() }
func (e *formatError) Unwrap() error        { return e.err }
func (e *formatError) Is(target error) bool { return target == ErrFormat }

// invalidf builds a format-classified error; %w works as in fmt.Errorf.
func invalidf(format string, args ...any) error {
	return &formatError{fmt.Errorf(format, args...)}
}

// ErrBadMagic is returned when a stream does not start with the CVJ magic.
// It matches ErrFormat.
var ErrBadMagic error = &formatError{errors.New("cvj: bad magic")}

// Video is a fully decoded clip.
type Video struct {
	FPS    int
	Frames []*imaging.Image
}

// Writer incrementally writes a CVJ stream from already-encoded JPEG
// records: header at construction, one record per WriteJPEG, terminator and
// trailer at Close. It is the streaming counterpart of Encode and the
// mechanism the ingest pipeline uses to assemble containers and key-frame
// streams from original frame bytes without a decode→re-encode round trip.
type Writer struct {
	bw     *bufio.Writer
	count  int
	closed bool
}

// NewWriter writes the container header and returns a record writer. The
// frame rate is stored exactly as given; it must lie in [0, MaxFPS].
func NewWriter(w io.Writer, fps int) (*Writer, error) {
	if fps < 0 || fps > MaxFPS {
		return nil, fmt.Errorf("cvj: fps %d outside [0, %d]", fps, MaxFPS)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, fmt.Errorf("cvj: write magic: %w", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], Version)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(fps))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("cvj: write header: %w", err)
	}
	return &Writer{bw: bw}, nil
}

// WriteJPEG appends one frame record. The bytes are stored verbatim; they
// must be a non-empty JPEG no larger than the frame-size limit (an empty
// record would read back as the stream terminator).
func (w *Writer) WriteJPEG(jp []byte) error {
	if w.closed {
		return errors.New("cvj: write after Close")
	}
	if len(jp) == 0 {
		return fmt.Errorf("cvj: frame %d empty", w.count)
	}
	if len(jp) > maxFrameSize {
		return fmt.Errorf("cvj: frame %d size %d exceeds limit", w.count, len(jp))
	}
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(jp)))
	if _, err := w.bw.Write(lenb[:]); err != nil {
		return fmt.Errorf("cvj: write frame %d length: %w", w.count, err)
	}
	if _, err := w.bw.Write(jp); err != nil {
		return fmt.Errorf("cvj: write frame %d: %w", w.count, err)
	}
	w.count++
	return nil
}

// Count reports how many records have been written.
func (w *Writer) Count() int { return w.count }

// Close writes the terminator and trailer and flushes. The Writer cannot be
// used afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var tail [8]byte
	binary.BigEndian.PutUint32(tail[0:4], 0)
	binary.BigEndian.PutUint32(tail[4:8], uint32(w.count))
	if _, err := w.bw.Write(tail[:]); err != nil {
		return fmt.Errorf("cvj: write trailer: %w", err)
	}
	return w.bw.Flush()
}

// Encode writes frames as a CVJ stream. quality <= 0 selects the imaging
// default JPEG quality; fps <= 0 selects 12; fps beyond MaxFPS is an error.
func Encode(w io.Writer, frames []*imaging.Image, fps, quality int) error {
	if fps <= 0 {
		fps = 12
	}
	cw, err := NewWriter(w, fps)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for i, f := range frames {
		buf.Reset()
		if err := f.EncodeJPEG(&buf, quality); err != nil {
			return fmt.Errorf("cvj: encode frame %d: %w", i, err)
		}
		if err := cw.WriteJPEG(buf.Bytes()); err != nil {
			return err
		}
	}
	return cw.Close()
}

// EncodeRaw writes already-encoded JPEG frame records as a CVJ stream,
// with the same fps defaulting as Encode.
func EncodeRaw(w io.Writer, frames [][]byte, fps int) error {
	if fps <= 0 {
		fps = 12
	}
	cw, err := NewWriter(w, fps)
	if err != nil {
		return err
	}
	for _, jp := range frames {
		if err := cw.WriteJPEG(jp); err != nil {
			return err
		}
	}
	return cw.Close()
}

// EncodeBytes is Encode into a fresh byte slice.
func EncodeBytes(frames []*imaging.Image, fps, quality int) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, frames, fps, quality); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reads an entire CVJ stream into memory.
func Decode(r io.Reader) (*Video, error) {
	cr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	v := &Video{FPS: cr.FPS()}
	for {
		f, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		v.Frames = append(v.Frames, f)
	}
	return v, nil
}

// Reader decodes a CVJ stream one frame at a time.
type Reader struct {
	br    *bufio.Reader
	fps   int
	count int
	done  bool
}

// NewReader validates the header and returns a streaming frame reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, invalidf("cvj: read magic: %w", truncated(err))
	}
	if string(magic[:]) != Magic {
		return nil, ErrBadMagic
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, invalidf("cvj: read header: %w", truncated(err))
	}
	if v := binary.BigEndian.Uint16(hdr[0:2]); v != Version {
		return nil, invalidf("cvj: unsupported version %d", v)
	}
	return &Reader{br: br, fps: int(binary.BigEndian.Uint16(hdr[2:4]))}, nil
}

// FPS reports the nominal frame rate from the header.
func (r *Reader) FPS() int { return r.fps }

// FramesRead reports how many frames have been decoded so far.
func (r *Reader) FramesRead() int { return r.count }

// Frame is one streamed container record: the frame's position in the
// video, the raw JPEG record bytes exactly as stored, and the decoded
// image. JPEG is a fresh allocation the caller may retain; the ingest
// pipeline stores it verbatim so stored key frames carry the container's
// original bytes instead of a lossy decode→re-encode round trip.
type Frame struct {
	Index int
	JPEG  []byte
	Image *imaging.Image
}

// truncated converts a clean io.EOF into io.ErrUnexpectedEOF. Inside the
// record stream running out of bytes is truncation, never a clean end —
// before this mapping, a stream cut at a frame boundary produced an error
// wrapping io.EOF, which errors.Is-style callers silently accepted as
// end-of-stream.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next decodes the next frame, or returns io.EOF after the last frame.
// On EOF the trailer count has been verified against the frames read.
func (r *Reader) Next() (*imaging.Image, error) {
	f, err := r.NextFrame()
	if err != nil {
		return nil, err
	}
	return f.Image, nil
}

// NextFrame decodes the next frame along with its raw JPEG record, or
// returns io.EOF after the last frame. A stream that ends before the
// terminator and trailer yields an error wrapping io.ErrUnexpectedEOF.
func (r *Reader) NextFrame() (*Frame, error) {
	rec, err := r.NextRecord()
	if err != nil {
		return nil, err
	}
	return &Frame{Index: rec.Index, JPEG: rec.JPEG, Image: rec.Source.Image()}, nil
}

// Record is one streamed container record decoded only as far as the JPEG
// decoder goes: Source holds the decoder's own planes, not yet converted
// to RGB (imaging.Source converts what a caller samples). Index and JPEG
// are as in Frame.
type Record struct {
	Index  int
	JPEG   []byte
	Source imaging.Source
}

// NextRecord is NextFrame without the RGB conversion: the same record
// checks, the same frame-size limit and the same errors (every one matches
// ErrFormat), and Source.Image() is the image NextFrame returns.
func (r *Reader) NextRecord() (Record, error) {
	if r.done {
		return Record{}, io.EOF
	}
	var lenb [4]byte
	if _, err := io.ReadFull(r.br, lenb[:]); err != nil {
		return Record{}, invalidf("cvj: read frame length: %w", truncated(err))
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n == 0 {
		// Terminator: validate trailer.
		var cnt [4]byte
		if _, err := io.ReadFull(r.br, cnt[:]); err != nil {
			return Record{}, invalidf("cvj: read trailer: %w", truncated(err))
		}
		if got := binary.BigEndian.Uint32(cnt[:]); int(got) != r.count {
			return Record{}, invalidf("cvj: trailer count %d != frames read %d", got, r.count)
		}
		r.done = true
		return Record{}, io.EOF
	}
	if n > maxFrameSize {
		return Record{}, invalidf("cvj: frame size %d exceeds limit", n)
	}
	jp := make([]byte, n)
	if _, err := io.ReadFull(r.br, jp); err != nil {
		return Record{}, invalidf("cvj: read frame %d: %w", r.count, truncated(err))
	}
	src, err := imaging.DecodeJPEGSource(bytes.NewReader(jp))
	if err != nil {
		return Record{}, invalidf("cvj: frame %d: %w", r.count, err)
	}
	rec := Record{Index: r.count, JPEG: jp, Source: src}
	r.count++
	return rec, nil
}
