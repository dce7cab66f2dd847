package codec

import (
	"math/bits"

	"rtcomp/internal/raster"
)

// The raw escape: a pixel block that leaves a rank is never larger than its
// pixels. EncodeCapped is the one function that puts a block into its wire
// form and Resolve the one that tells which form arrived; block messages,
// buddy replicas and the simulator's byte accounting all go through this
// pair.
//
// The escape costs no wire byte. A block travels compressed only when the
// encoding is strictly shorter than the pixels, and raw otherwise, so a
// compressed stream never has the raw length: the length every envelope
// already carries is the discriminator.

// cappedEncoder is the early-exit form of EncodeAppend: it appends the
// encoding of pix to dst only while the result stays within limit bytes
// (an absolute length of the returned slice). It reports false as soon as
// the encoding is known not to fit, having written nothing past limit; what
// it appended until then is garbage the caller truncates.
type cappedEncoder interface {
	encodeCapped(dst, pix []uint8, limit int) ([]uint8, bool)
}

// EncodeCapped appends the wire form of pix to dst and returns the extended
// slice: cdc's encoding when that is strictly shorter than pix, pix itself
// otherwise. It appends at most len(pix) bytes, and for the codecs of this
// package never writes further than that into dst's backing array, so a
// caller that reserved len(pix) bytes sees no reallocation. A codec from
// outside the package has no early exit: its EncodeAppend runs to the end
// and is then compared, so the result still obeys the cap, but the trial
// may write — and grow dst — past it. The result never aliases pix.
func EncodeCapped(dst, pix []uint8, cdc Codec) []uint8 {
	base := len(dst)
	var out []uint8
	var fits bool
	if ce, ok := cdc.(cappedEncoder); ok {
		out, fits = ce.encodeCapped(dst, pix, base+len(pix)-1)
	} else {
		out = cdc.EncodeAppend(dst, pix)
		fits = len(out)-base < len(pix)
	}
	if fits {
		return out
	}
	return append(out[:base], pix...)
}

// Resolve returns the codec that decodes enc, the wire form EncodeCapped
// produced for a block of npix pixels under cdc: Raw when enc has the raw
// length, cdc otherwise.
func Resolve(cdc Codec, enc []uint8, npix int) Codec {
	if len(enc) == npix*raster.BytesPerPixel {
		return Raw{}
	}
	return cdc
}

// encodeCapped implements cappedEncoder: the identity never beats raw.
func (Raw) encodeCapped(dst, _ []uint8, _ int) ([]uint8, bool) { return dst, false }

// uvarintLen is the number of bytes binary.AppendUvarint emits for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
