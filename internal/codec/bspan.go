package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"rtcomp/internal/raster"
)

// BSpan is the bounding-interval codec: the span analogue of the bounding
// rectangle of Ma et al. and Lee that the paper cites as the classic
// composition-traffic reduction. Leading and trailing blank pixels of a
// block are trimmed and only the interior interval travels, uncompressed:
//
//	uvarint(offset) | uvarint(count) | count pixels raw
//
// It costs almost no computation — the cheapest reduction of the three —
// but unlike RLE/TRLE it cannot exploit blanks inside the footprint.
type BSpan struct{}

// Name implements Codec.
func (BSpan) Name() string { return "bspan" }

// Encode implements Codec.
func (BSpan) Encode(pix []uint8) []uint8 {
	return BSpan{}.EncodeAppend(make([]uint8, 0, len(pix)+8), pix)
}

// EncodeAppend implements Codec.
func (BSpan) EncodeAppend(dst, pix []uint8) []uint8 {
	out, _ := BSpan{}.encodeCapped(dst, pix, math.MaxInt)
	return out
}

// encodeCapped implements cappedEncoder: the size is known once the margins
// are trimmed, before the interval is copied.
func (BSpan) encodeCapped(dst, pix []uint8, limit int) ([]uint8, bool) {
	if len(pix)%raster.BytesPerPixel != 0 {
		panic("codec: BSpan.Encode on odd-length pixel block")
	}
	n := len(pix) / raster.BytesPerPixel
	lo := 0
	for lo < n && pix[2*lo+1] == 0 {
		lo++
	}
	hi := n
	for hi > lo && pix[2*(hi-1)+1] == 0 {
		hi--
	}
	if limit-len(dst) < uvarintLen(uint64(lo))+uvarintLen(uint64(hi-lo))+2*(hi-lo) {
		return dst, false
	}
	dst = binary.AppendUvarint(dst, uint64(lo))
	dst = binary.AppendUvarint(dst, uint64(hi-lo))
	return append(dst, pix[2*lo:2*hi]...), true
}

// Decode implements Codec.
func (BSpan) Decode(enc []uint8, npix int) ([]uint8, error) {
	return BSpan{}.DecodeInto(nil, enc, npix)
}

// DecodeInto implements Codec.
func (BSpan) DecodeInto(dst, enc []uint8, npix int) ([]uint8, error) {
	lo, k := binary.Uvarint(enc)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bspan offset", ErrCorrupt)
	}
	enc = enc[k:]
	count, k := binary.Uvarint(enc)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bspan count", ErrCorrupt)
	}
	enc = enc[k:]
	if lo+count > uint64(npix) {
		return nil, fmt.Errorf("%w: bspan interval [%d,%d) exceeds %d pixels", ErrCorrupt, lo, lo+count, npix)
	}
	if uint64(len(enc)) != count*raster.BytesPerPixel {
		return nil, fmt.Errorf("%w: bspan payload has %d bytes, want %d", ErrCorrupt, len(enc), count*raster.BytesPerPixel)
	}
	// Only the interval is copied, so a recycled dst must be cleared to
	// make the trimmed margins blank.
	out := grow(dst, npix*raster.BytesPerPixel)
	clear(out)
	copy(out[lo*raster.BytesPerPixel:], enc)
	return out, nil
}
