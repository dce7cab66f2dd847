// Package codec implements the compression schemes the paper evaluates for
// shrinking composition traffic: classic run-length encoding (RLE) and the
// paper's template run-length encoding (TRLE), in two forms each:
//
//   - mask codecs, operating on binary blank/non-blank bitmaps exactly as in
//     the paper's Figures 3 and 4 (2x2-pixel templates, one byte per code);
//   - image codecs, operating on the interleaved value+alpha pixel blocks
//     the compositors actually transmit. Blocks are contiguous row-major
//     pixel spans, so the image-mode TRLE template covers four consecutive
//     pixels (a 4x1 window) instead of a 2x2 window; the coding mechanics —
//     4-bit template plus 4-bit replication count — are unchanged.
//
// Blank pixels (alpha == 0) carry no compositing contribution, which is what
// both codecs exploit.
package codec

import (
	"errors"
	"fmt"
	"strings"

	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
)

// Codec compresses, decompresses and composites interleaved value+alpha
// pixel blocks (raster.BytesPerPixel bytes per pixel). The set is closed:
// Raw, RLE and TRLE — the three wire forms the paper compares — are its only
// members. Implementations are deterministic and side-effect free, and no
// result aliases its input: EncodeAppend writes only dst's backing array and
// DecodeInto only the buffer it returns, so either result stays valid after
// the input buffer is reused or returned to a pool.
//
// The receive path is fused: DecodeOver composites an encoded block directly
// with a resident pixel block, so a received fragment is decoded and merged
// in one pass without the decoded pixels ever existing in a scratch buffer.
// Per-pixel results and the returned over-pixel counts are byte-identical to
// DecodeInto followed by compose.OverU8 — the kernels share compose's
// per-pixel operator. Validation is split from mutation: CheckStream applies
// every stream-integrity check DecodeInto would (framing, truncation,
// underflow, overflow, blank payload pixels) without touching a pixel, so a
// caller holding resident state can pre-validate a whole message and keep
// corrupt payloads transactional. DecodeOver after a failed CheckStream is a
// caller bug: the result is memory-safe but unspecified, and DecodeOver's
// own error returns are a partial, redundant subset of CheckStream's.
type Codec interface {
	// Name identifies the codec in reports ("raw", "rle", "trle").
	Name() string
	// EncodeAppend appends the encoding of pix to dst and returns the
	// extended slice, growing it as needed.
	EncodeAppend(dst, pix []uint8) []uint8
	// DecodeInto expands an encoded block into dst's backing array when its
	// capacity suffices (allocating otherwise) and returns a slice of
	// exactly npix pixels.
	DecodeInto(dst, enc []uint8, npix int) ([]uint8, error)
	// CheckStream validates enc as an encoding of exactly npix pixels.
	CheckStream(enc []uint8, npix int) error
	// DecodeOver composites the encoded block with dst in place: with
	// encFront true the decoded pixels act as the front layer (decoded over
	// dst), otherwise dst is the front (dst over decoded). dst must hold
	// exactly npix pixels. Returns the number of pixels passed through the
	// over operator: npix on success.
	DecodeOver(dst, enc []uint8, npix int, encFront bool) (int, error)
	// encodeCapped is the early-exit form of EncodeAppend: it appends the
	// encoding of pix to dst only while the result stays within limit bytes
	// (an absolute length of the returned slice). It reports false as soon
	// as the encoding is known not to fit, having written nothing past
	// limit; what it appended until then is garbage the caller truncates.
	encodeCapped(dst, pix []uint8, limit int) ([]uint8, bool)
}

// grow returns a slice of length n for DecodeInto-style writers, reusing
// dst's backing array when it is large enough. Contents are unspecified.
func grow(dst []uint8, n int) []uint8 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]uint8, n)
}

// ErrCorrupt is returned by a decoder when the encoded stream is
// inconsistent with the expected pixel count.
var ErrCorrupt = errors.New("codec: corrupt stream")

// Raw is the identity codec: blocks travel uncompressed.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// EncodeAppend implements Codec.
func (Raw) EncodeAppend(dst, pix []uint8) []uint8 { return append(dst, pix...) }

// encodeCapped implements Codec: the identity never beats raw.
func (Raw) encodeCapped(dst, _ []uint8, _ int) ([]uint8, bool) { return dst, false }

// DecodeInto implements Codec.
func (Raw) DecodeInto(dst, enc []uint8, npix int) ([]uint8, error) {
	if err := (Raw{}).CheckStream(enc, npix); err != nil {
		return nil, err
	}
	out := grow(dst, len(enc))
	copy(out, enc)
	return out, nil
}

// CheckStream implements Codec: a raw block is valid exactly when its
// length matches the pixel count.
func (Raw) CheckStream(enc []uint8, npix int) error {
	if len(enc) != npix*raster.BytesPerPixel {
		return fmt.Errorf("%w: raw block has %d bytes, want %d", ErrCorrupt, len(enc), npix*raster.BytesPerPixel)
	}
	return nil
}

// DecodeOver implements Codec: the raw payload feeds the word-wide over
// kernel directly, skipping the staging copy DecodeInto would make.
func (Raw) DecodeOver(dst, enc []uint8, npix int, encFront bool) (int, error) {
	if len(dst) != npix*raster.BytesPerPixel {
		panic("codec: Raw.DecodeOver dst length mismatch")
	}
	if err := (Raw{}).CheckStream(enc, npix); err != nil {
		return 0, err
	}
	if encFront {
		return compose.OverU8(dst, enc, dst), nil
	}
	return compose.OverU8(dst, dst, enc), nil
}

// all is every codec, in the paper's evaluation order.
var all = [...]Codec{Raw{}, RLE{}, TRLE{}}

// ByName returns the codec of the given name; the empty name is Raw.
func ByName(name string) (Codec, error) {
	if name == "" {
		return Raw{}, nil
	}
	for _, c := range all {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("codec: unknown codec %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// Names lists the codecs' names in the paper's evaluation order.
func Names() []string {
	names := make([]string, len(all))
	for i, c := range all {
		names[i] = c.Name()
	}
	return names
}

// Ratio reports original/encoded size; larger is better. A zero encoded
// size (possible only for empty input) reports 1.
func Ratio(origBytes, encBytes int) float64 {
	if encBytes == 0 {
		return 1
	}
	return float64(origBytes) / float64(encBytes)
}
