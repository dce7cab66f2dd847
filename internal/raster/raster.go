// Package raster provides the image substrate used by the composition
// methods: value+alpha raster images stored as two bytes per pixel, span
// arithmetic for tiling sub-images into blocks, and helpers to slice,
// splice and compare image regions.
//
// Composition schedules address image data by contiguous pixel spans, not
// rectangles: the "over" operation is pixel-wise, so the geometry of a block
// is irrelevant to correctness, and contiguous spans make block extraction a
// single copy. A span [Lo,Hi) covers pixels Lo..Hi-1 in row-major order.
//
// Images leave the process as binary PGM or gray+alpha PNG; WriteFile
// picks the format from the file name.
package raster

import (
	"fmt"
	"math"
)

// BytesPerPixel is the storage cost of one pixel: a gray value followed by
// an alpha (coverage/opacity) byte.
const BytesPerPixel = 2

// Image is a grayscale-with-alpha raster. Pix holds BytesPerPixel bytes per
// pixel in row-major order: Pix[2i] is the gray value of pixel i and
// Pix[2i+1] its alpha. A pixel with alpha 0 is "blank": it carries no
// contribution and is skipped by compositing and compressed away by the
// codecs.
type Image struct {
	W, H int
	Pix  []uint8
}

// New returns a blank (fully transparent) image of the given size.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("raster: invalid size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h*BytesPerPixel)}
}

// NPixels reports the number of pixels in the image.
func (im *Image) NPixels() int { return im.W * im.H }

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]uint8, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// At returns the (value, alpha) pair of pixel (x, y).
func (im *Image) At(x, y int) (v, a uint8) {
	i := (y*im.W + x) * BytesPerPixel
	return im.Pix[i], im.Pix[i+1]
}

// Set stores the (value, alpha) pair of pixel (x, y).
func (im *Image) Set(x, y int, v, a uint8) {
	i := (y*im.W + x) * BytesPerPixel
	im.Pix[i], im.Pix[i+1] = v, a
}

// Fill sets every pixel to the given value and alpha.
func (im *Image) Fill(v, a uint8) {
	for i := 0; i < len(im.Pix); i += BytesPerPixel {
		im.Pix[i], im.Pix[i+1] = v, a
	}
}

// Span is a half-open range of pixel indices [Lo, Hi) in row-major order.
type Span struct {
	Lo, Hi int
}

// Len reports the number of pixels in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// Empty reports whether the span covers no pixels.
func (s Span) Empty() bool { return s.Hi <= s.Lo }

// Contains reports whether t lies entirely within s.
func (s Span) Contains(t Span) bool { return t.Lo >= s.Lo && t.Hi <= s.Hi }

// Halves splits the span into two halves. The first half receives the extra
// pixel when the length is odd, matching the paper's "divide each block into
// two equal halves" with a deterministic tie-break shared by all ranks.
func (s Span) Halves() (Span, Span) {
	mid := s.Lo + (s.Len()+1)/2
	return Span{s.Lo, mid}, Span{mid, s.Hi}
}

// String implements fmt.Stringer.
func (s Span) String() string { return fmt.Sprintf("[%d,%d)", s.Lo, s.Hi) }

// SplitSpan divides s into n near-equal contiguous parts. Remainder pixels
// are spread over the leading parts so any two parts differ by at most one
// pixel.
func SplitSpan(s Span, n int) []Span {
	if n <= 0 {
		panic("raster: SplitSpan needs n > 0")
	}
	parts := make([]Span, n)
	total := s.Len()
	lo := s.Lo
	for i := 0; i < n; i++ {
		size := total / n
		if i < total%n {
			size++
		}
		parts[i] = Span{lo, lo + size}
		lo += size
	}
	return parts
}

// SpanBytes returns the backing bytes of the span as a mutable slice view.
func (im *Image) SpanBytes(s Span) []uint8 {
	return im.Pix[s.Lo*BytesPerPixel : s.Hi*BytesPerPixel]
}

// InsertSpan overwrites the span's pixels with data, which must hold exactly
// BytesPerPixel bytes per span pixel.
func (im *Image) InsertSpan(s Span, data []uint8) {
	if len(data) != s.Len()*BytesPerPixel {
		panic(fmt.Sprintf("raster: InsertSpan size mismatch: span %v needs %d bytes, got %d",
			s, s.Len()*BytesPerPixel, len(data)))
	}
	copy(im.SpanBytes(s), data)
}

// BlankFraction reports the fraction of pixels with alpha zero.
func (im *Image) BlankFraction() float64 {
	if im.NPixels() == 0 {
		return 0
	}
	blank := 0
	for i := 1; i < len(im.Pix); i += BytesPerPixel {
		if im.Pix[i] == 0 {
			blank++
		}
	}
	return float64(blank) / float64(im.NPixels())
}

// Equal reports whether two images have identical size and pixels.
func Equal(a, b *Image) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

// MaxDiff returns the largest absolute per-byte difference between two
// images of identical size, considering both value and alpha channels.
func MaxDiff(a, b *Image) int {
	if a.W != b.W || a.H != b.H {
		return math.MaxInt
	}
	max := 0
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// PSNR reports the peak signal-to-noise ratio between two images of the
// same size, over both channels, in decibels. Identical images report
// +Inf; mismatched sizes report NaN.
func PSNR(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H || len(a.Pix) == 0 {
		return math.NaN()
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += d * d
	}
	if sum == 0 {
		return math.Inf(1)
	}
	mse := sum / float64(len(a.Pix))
	return 10 * math.Log10(255*255/mse)
}

// DiffCount returns the number of bytes differing by more than tol.
func DiffCount(a, b *Image, tol int) int {
	n := 0
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > tol {
			n++
		}
	}
	return n
}

// UpscaleNearest resizes the image to w x h with nearest-neighbour
// sampling. Nearest-neighbour commutes exactly with pixel-wise compositing,
// so upscaling partial images and compositing them equals compositing and
// then upscaling — the property the experiment harness relies on when
// blowing rendered partials up to the paper's 512x512 composite size.
func (im *Image) UpscaleNearest(w, h int) *Image {
	out := New(w, h)
	for y := 0; y < h; y++ {
		sy := y * im.H / h
		for x := 0; x < w; x++ {
			sx := x * im.W / w
			si := (sy*im.W + sx) * BytesPerPixel
			di := (y*w + x) * BytesPerPixel
			out.Pix[di], out.Pix[di+1] = im.Pix[si], im.Pix[si+1]
		}
	}
	return out
}

// Rect is an axis-aligned pixel rectangle [X0,X1) x [Y0,Y1), used by the
// bounding-rectangle optimisation of Ma et al. and Lee.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// BoundingRect returns the tightest rectangle containing every non-blank
// pixel of the image, or an empty rectangle for a fully blank image.
func (im *Image) BoundingRect() Rect {
	x0, y0 := im.W, im.H
	x1, y1 := 0, 0
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*im.W*BytesPerPixel : (y+1)*im.W*BytesPerPixel]
		for x := 0; x < im.W; x++ {
			if row[x*BytesPerPixel+1] != 0 {
				if x < x0 {
					x0 = x
				}
				if x >= x1 {
					x1 = x + 1
				}
				if y < y0 {
					y0 = y
				}
				if y >= y1 {
					y1 = y + 1
				}
			}
		}
	}
	if x1 <= x0 {
		return Rect{}
	}
	return Rect{x0, y0, x1, y1}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
