package raster

import (
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// pngState is the recycled working state of WritePNG: the deflate writer
// and the buffer the whole file is assembled in, chunk headers and CRCs
// included, so a warm call allocates nothing.
type pngState struct {
	zw  *zlib.Writer
	buf []byte
}

// Write appends deflate output to the file under assembly; it cannot fail,
// so the deflate writer is never abandoned mid-stream.
func (s *pngState) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// chunk opens a chunk of the given type with its length still to come and
// returns the offset endChunk needs.
func (s *pngState) chunk(typ string) int {
	s.buf = append(s.buf, 0, 0, 0, 0)
	s.buf = append(s.buf, typ...)
	return len(s.buf)
}

// endChunk fills in the length of the chunk whose data starts at data and
// appends its CRC (over type and data).
func (s *pngState) endChunk(data int) {
	binary.BigEndian.PutUint32(s.buf[data-8:], uint32(len(s.buf)-data))
	s.buf = binary.BigEndian.AppendUint32(s.buf, crc32.ChecksumIEEE(s.buf[data-4:]))
}

// pngPool holds pngStates. The writer compresses at BestSpeed: on rendered
// frames that costs about a tenth more bytes than the default level for
// well under half the time, and a frame is encoded once per request but
// downloaded over loopback or a LAN.
var pngPool = sync.Pool{New: func() any {
	s := new(pngState)
	s.zw, _ = zlib.NewWriterLevel(s, zlib.BestSpeed) // the level is valid
	return s
}}

// pngFilterNone is the filter-type byte that precedes every scanline.
var pngFilterNone = []byte{0}

// WritePNG writes the image as an 8-bit gray+alpha PNG (colour type 4)
// straight from Pix, which already is that format's scanline layout. Every
// row uses filter None: rendered frames are mostly blank and their alpha
// edges are short, and at BestSpeed the unfiltered zero runs compress
// better and faster than Sub or Up residues (table in CHANGES.md, PR 18).
// The file reaches w in a single Write.
func (im *Image) WritePNG(w io.Writer) error {
	if im.W <= 0 || im.H <= 0 {
		return fmt.Errorf("raster: cannot write a %dx%d image as PNG", im.W, im.H)
	}
	s := pngPool.Get().(*pngState)
	defer pngPool.Put(s)
	s.buf = append(s.buf[:0], "\x89PNG\r\n\x1a\n"...)
	at := s.chunk("IHDR")
	s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(im.W))
	s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(im.H))
	s.buf = append(s.buf, 8, 4, 0, 0, 0) // depth, colour type, deflate, adaptive filtering, no interlace
	s.endChunk(at)
	at = s.chunk("IDAT")
	s.zw.Reset(s)
	stride := im.W * BytesPerPixel
	for y := 0; y < im.H; y++ {
		s.zw.Write(pngFilterNone)
		s.zw.Write(im.Pix[y*stride : (y+1)*stride])
	}
	// Close reports whatever any Write above ran into.
	if err := s.zw.Close(); err != nil {
		return fmt.Errorf("raster: deflating PNG rows: %w", err)
	}
	s.endChunk(at)
	s.endChunk(s.chunk("IEND"))
	_, err := w.Write(s.buf)
	return err
}
