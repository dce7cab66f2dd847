package raster

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"sync"
)

// WriteFile writes the image to path: binary PGM when the name ends in
// .pgm, PNG otherwise.
func (im *Image) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".pgm") {
		_, err = f.Write(im.EncodePGM())
	} else {
		err = im.WritePNG(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

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
	zw  *flate.Writer
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
	s.zw, _ = flate.NewWriter(s, flate.BestSpeed) // the level is valid
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
//
// The IDAT stream is what compress/zlib writes at BestSpeed — header 0x78
// 0x01, the deflate stream, the Adler-32 of the scanlines — framed here so
// that the checksum can skip zero words, which most of a rendered frame is.
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
	s.buf = append(s.buf, 0x78, 0x01) // zlib: deflate, 32 KiB window, fastest
	s.zw.Reset(s)
	stride := im.W * BytesPerPixel
	sum := uint32(1)
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*stride : (y+1)*stride]
		s.zw.Write(pngFilterNone)
		s.zw.Write(row)
		sum = updateAdler32(updateAdler32(sum, pngFilterNone), row)
	}
	// Close reports whatever any Write above ran into.
	if err := s.zw.Close(); err != nil {
		return fmt.Errorf("raster: deflating PNG rows: %w", err)
	}
	s.buf = binary.BigEndian.AppendUint32(s.buf, sum)
	s.endChunk(at)
	s.endChunk(s.chunk("IEND"))
	_, err := w.Write(s.buf)
	return err
}

// updateAdler32 continues the Adler-32 checksum sum over p, as hash/adler32
// would. A zero 8-byte word leaves s1 alone and adds 8·s1 to s2, so the
// blank stretches of a frame cost one load and one multiply-add a word. Both
// sums are reduced once per 5 552 bytes (a multiple of 8), the longest
// stretch of 0xFF bytes after which s2 still fits in 32 bits.
func updateAdler32(sum uint32, p []byte) uint32 {
	const mod, nmax = 65521, 5552
	s1, s2 := sum&0xffff, sum>>16
	for len(p) > 0 {
		q := p
		if len(q) > nmax {
			q = q[:nmax]
		}
		p = p[len(q):]
		for ; len(q) >= 8; q = q[8:] {
			if binary.LittleEndian.Uint64(q) == 0 {
				s2 += 8 * s1
				continue
			}
			for _, b := range q[:8] {
				s1 += uint32(b)
				s2 += s1
			}
		}
		for _, b := range q {
			s1 += uint32(b)
			s2 += s1
		}
		s1 %= mod
		s2 %= mod
	}
	return s2<<16 | s1
}
