// Package imaging provides the raster substrate for the CBVR system: an
// 8-bit RGB image type, an 8-bit grayscale type, colour conversions,
// rescaling, histograms, morphology and thresholding.
//
// It stands in for the Java Advanced Imaging (JAI) operations the paper's
// pseudo-code calls (PlanarImage, RenderedImage, LookupTableJAI, band
// combine, dilate, erode, fuzziness threshold). Conversions to and from the
// standard library's image.Image are provided so frames can round-trip
// through real JPEG bytes.
package imaging

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"io"
)

// Image is an 8-bit RGB raster stored row-major as R,G,B triples.
// The zero value is an empty image; use New to allocate pixels.
type Image struct {
	W, H int
	Pix  []uint8 // len == W*H*3
}

// New returns a w×h RGB image with all pixels black.
// It panics if w or h is negative.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imaging: invalid dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h*3)}
}

// Bounds reports the image dimensions as an image.Rectangle anchored at the
// origin.
func (im *Image) Bounds() image.Rectangle {
	return image.Rect(0, 0, im.W, im.H)
}

// In reports whether (x, y) lies inside the image.
func (im *Image) In(x, y int) bool {
	return x >= 0 && y >= 0 && x < im.W && y < im.H
}

// At returns the RGB components at (x, y). It panics if the point is out of
// bounds, matching slice indexing semantics.
func (im *Image) At(x, y int) (r, g, b uint8) {
	i := (y*im.W + x) * 3
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set assigns the RGB components at (x, y).
func (im *Image) Set(x, y int, r, g, b uint8) {
	i := (y*im.W + x) * 3
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Fill sets every pixel to the given colour.
func (im *Image) Fill(r, g, b uint8) {
	for i := 0; i < len(im.Pix); i += 3 {
		im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
	}
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]uint8, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// Equal reports whether two images have identical dimensions and pixels.
func (im *Image) Equal(other *Image) bool {
	if im.W != other.W || im.H != other.H {
		return false
	}
	for i := range im.Pix {
		if im.Pix[i] != other.Pix[i] {
			return false
		}
	}
	return true
}

// Gray is an 8-bit single-channel raster stored row-major.
type Gray struct {
	W, H int
	Pix  []uint8 // len == W*H
}

// NewGray returns a w×h grayscale image with all pixels zero.
func NewGray(w, h int) *Gray {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imaging: invalid dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the intensity at (x, y).
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// Set assigns the intensity at (x, y).
func (g *Gray) Set(x, y int, v uint8) { g.Pix[y*g.W+x] = v }

// In reports whether (x, y) lies inside the image.
func (g *Gray) In(x, y int) bool {
	return x >= 0 && y >= 0 && x < g.W && y < g.H
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := &Gray{W: g.W, H: g.H, Pix: make([]uint8, len(g.Pix))}
	copy(out.Pix, g.Pix)
	return out
}

// FromImage converts any image.Image to an RGB raster.
func FromImage(src image.Image) *Image {
	b := src.Bounds()
	out := New(b.Dx(), b.Dy())
	// Fast path for the common decoder output types.
	switch s := src.(type) {
	case *image.RGBA:
		for y := 0; y < out.H; y++ {
			so := s.PixOffset(b.Min.X, b.Min.Y+y)
			do := y * out.W * 3
			for x := 0; x < out.W; x++ {
				out.Pix[do] = s.Pix[so]
				out.Pix[do+1] = s.Pix[so+1]
				out.Pix[do+2] = s.Pix[so+2]
				so += 4
				do += 3
			}
		}
		return out
	case *image.YCbCr:
		if hs, ok := chromaShift(s); ok {
			src := Source{ycc: s, hs: hs}
			for y := 0; y < out.H; y++ {
				yr, cb, cr := src.yccRow(y)
				d := out.Pix[y*out.W*3 : (y+1)*out.W*3]
				for x, yy := range yr[:out.W] {
					c := src.chroma(x)
					d[3*x], d[3*x+1], d[3*x+2] = color.YCbCrToRGB(yy, cb[c], cr[c])
				}
			}
			return out
		}
		// A negative Rect.Min.X: COffset's truncating division is not a
		// shift there, so take it pixel by pixel.
		for y := 0; y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				yi := s.YOffset(b.Min.X+x, b.Min.Y+y)
				ci := s.COffset(b.Min.X+x, b.Min.Y+y)
				r, g, bl := color.YCbCrToRGB(s.Y[yi], s.Cb[ci], s.Cr[ci])
				out.Set(x, y, r, g, bl)
			}
		}
		return out
	}
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, uint8(r>>8), uint8(g>>8), uint8(bl>>8))
		}
	}
	return out
}

// ToRGBA converts the raster to a standard library *image.RGBA with full
// opacity.
func (im *Image) ToRGBA() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	si, di := 0, 0
	for p := 0; p < im.W*im.H; p++ {
		out.Pix[di] = im.Pix[si]
		out.Pix[di+1] = im.Pix[si+1]
		out.Pix[di+2] = im.Pix[si+2]
		out.Pix[di+3] = 0xff
		si += 3
		di += 4
	}
	return out
}

// DefaultJPEGQuality is used by EncodeJPEG when quality <= 0.
const DefaultJPEGQuality = 85

// EncodeJPEG writes the image as JPEG. quality <= 0 selects
// DefaultJPEGQuality.
func (im *Image) EncodeJPEG(w io.Writer, quality int) error {
	if im.W == 0 || im.H == 0 {
		return errors.New("imaging: cannot encode empty image")
	}
	if quality <= 0 {
		quality = DefaultJPEGQuality
	}
	return jpeg.Encode(w, im.ToRGBA(), &jpeg.Options{Quality: quality})
}

// maxDecodePixels bounds the frame DecodeJPEG will decode. The decoder
// allocates whatever the SOF header declares, and a few hundred bytes can
// declare 65535×65535; 8K UHD (7680×4320) fits under the bound.
const maxDecodePixels = 1 << 25

// DecodeJPEG reads a JPEG image into an RGB raster. It reads the header
// first and refuses a frame over maxDecodePixels before anything of that
// size is allocated.
func DecodeJPEG(r io.Reader) (*Image, error) {
	src, err := DecodeJPEGSource(r)
	if err != nil {
		return nil, err
	}
	return src.Image(), nil
}

// DecodeJPEGSource is DecodeJPEG stopped before the RGB conversion: it
// returns the decoder's own planes as a Source, with the same header check
// and the same errors.
func DecodeJPEGSource(r io.Reader) (Source, error) {
	cfg, r, err := decodeConfig(r)
	if err != nil {
		return Source{}, fmt.Errorf("imaging: decode jpeg: %w", err)
	}
	if cfg.Width*cfg.Height > maxDecodePixels {
		return Source{}, fmt.Errorf("imaging: decode jpeg: %dx%d frame exceeds the %d-pixel limit", cfg.Width, cfg.Height, maxDecodePixels)
	}
	src, err := jpeg.Decode(r)
	if err != nil {
		return Source{}, fmt.Errorf("imaging: decode jpeg: %w", err)
	}
	return sourceOf(src), nil
}

// decodeConfig reads the JPEG header from r and returns a reader that
// still yields the whole image: a seekable reader (an in-memory record, an
// uploaded file) is rewound without copying, any other has the header
// bytes replayed in front of the rest of the stream.
func decodeConfig(r io.Reader) (image.Config, io.Reader, error) {
	if rs, ok := r.(io.ReadSeeker); ok {
		if pos, err := rs.Seek(0, io.SeekCurrent); err == nil {
			cfg, err := jpeg.DecodeConfig(rs)
			if err != nil {
				return cfg, nil, err
			}
			_, err = rs.Seek(pos, io.SeekStart)
			return cfg, rs, err
		}
	}
	var hdr bytes.Buffer
	cfg, err := jpeg.DecodeConfig(io.TeeReader(r, &hdr))
	return cfg, io.MultiReader(&hdr, r), err
}
