package raster

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"sync"
)

// EncodePGM serialises the image as a binary PGM (P5): each pixel's gray
// value composited over a black background by its alpha.
func (im *Image) EncodePGM() []byte {
	out := make([]byte, 0, im.NPixels()+32)
	out = append(out, []byte(fmt.Sprintf("P5\n%d %d\n255\n", im.W, im.H))...)
	for i := 0; i < len(im.Pix); i += BytesPerPixel {
		v := int(im.Pix[i]) * int(im.Pix[i+1]) / 255
		out = append(out, uint8(v))
	}
	return out
}

// pngBuffers recycles the encoder's working state (the deflate writer and
// the filter rows) across images.
type pngBuffers struct{ pool sync.Pool }

func (b *pngBuffers) Get() *png.EncoderBuffer {
	eb, _ := b.pool.Get().(*png.EncoderBuffer)
	return eb
}

func (b *pngBuffers) Put(eb *png.EncoderBuffer) { b.pool.Put(eb) }

// pngEncoder compresses at BestSpeed: on rendered frames that costs about a
// tenth more bytes than the default level for well under half the time, and
// a frame is encoded once per request but downloaded over loopback or a LAN.
var pngEncoder = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: new(pngBuffers)}

// nrgbaPool recycles the 4-byte-per-pixel staging images WritePNG encodes
// from.
var nrgbaPool sync.Pool

// WritePNG writes the image as a gray+alpha PNG.
func (im *Image) WritePNG(w io.Writer) error {
	out, _ := nrgbaPool.Get().(*image.NRGBA)
	if n := 4 * im.NPixels(); out == nil || cap(out.Pix) < n {
		out = &image.NRGBA{Pix: make([]uint8, n)}
	} else {
		out.Pix = out.Pix[:n]
	}
	out.Stride, out.Rect = 4*im.W, image.Rect(0, 0, im.W, im.H)
	for i, o := 0, 0; i < len(im.Pix); i, o = i+BytesPerPixel, o+4 {
		v := im.Pix[i]
		out.Pix[o], out.Pix[o+1], out.Pix[o+2], out.Pix[o+3] = v, v, v, im.Pix[i+1]
	}
	err := pngEncoder.Encode(w, out)
	nrgbaPool.Put(out)
	return err
}
