package codec

import (
	"math/bits"

	"rtcomp/internal/raster"
)

// The raw escape: a pixel block that leaves a rank is never larger than its
// pixels. EncodeCapped is the one function that puts a block into its wire
// form and Resolve the one that tells which form arrived; block messages
// and the simulator's byte accounting both go through this pair.
//
// The escape costs no wire byte. A block travels compressed only when the
// encoding is strictly shorter than the pixels, and raw otherwise, so a
// compressed stream never has the raw length: the length every envelope
// already carries is the discriminator.

// EncodeCapped appends the wire form of pix to dst and returns the extended
// slice: cdc's encoding when that is strictly shorter than pix, pix itself
// otherwise. It appends at most len(pix) bytes and never writes further
// than that into dst's backing array, so a caller that reserved len(pix)
// bytes sees no reallocation. The result never aliases pix.
func EncodeCapped(dst, pix []uint8, cdc Codec) []uint8 {
	base := len(dst)
	out, fits := cdc.encodeCapped(dst, pix, base+len(pix)-1)
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

// uvarintLen is the number of bytes binary.AppendUvarint emits for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
