package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
)

// TRLE is the paper's template run-length encoding applied to value+alpha
// pixel blocks. The block's blank structure is described by a stream of
// one-byte TRLE codes — low nibble: a 4-bit template marking which of four
// consecutive pixels are non-blank; high nibble: how many additional times
// the template repeats (so one code covers up to 16 template groups) — and
// the surviving non-blank pixels follow as a raw payload in scan order.
//
// The paper defines templates over 2x2 pixel windows of a rectangular
// sub-image. Composition blocks in this implementation are contiguous
// row-major spans, so the template here covers four consecutive pixels
// instead; MaskTRLE (mask.go) implements the exact 2x2 form and reproduces
// Figure 4 byte for byte.
type TRLE struct{}

// Name implements Codec.
func (TRLE) Name() string { return "trle" }

// templatePixels is the number of pixels described by one template, and
// groupBytes the bytes they occupy.
const (
	templatePixels = 4
	groupBytes     = templatePixels * raster.BytesPerPixel
)

// EncodeAppend implements Codec: encodeCapped under an unlimited budget, so
// the stream may be longer than the pixels. Output is byte-identical to the
// scalar reference encoder. Layout:
//
//	uvarint(code count) | codes... | payload (value,alpha of non-blank pixels)
func (TRLE) EncodeAppend(dst, pix []uint8) []uint8 {
	out, _ := TRLE{}.encodeCapped(dst, pix, math.MaxInt)
	return out
}

// encodeCapped implements Codec; it is the one TRLE encode kernel.
// It touches each pixel twice at most, in two passes:
//
//   - pixels to codes: classifyTemplates writes one template per group into
//     a pooled scratch buffer, then one uncapped byteRunLen per template run
//     turns a run of r templates into ⌈r/16⌉ codes, compacted in place into
//     that buffer (a run's codes land at or before its first template, which
//     has been read by then), while the payload size is summed;
//   - codes to payload: the output size is now exact, so the budget is
//     checked once, before anything is written — a block that does not fit
//     leaves dst as it was — and dst grows once. The payload pass walks the
//     codes, not the templates: consecutive all-set codes are one bulk copy
//     (an all-set template implies a full group, so the copy cannot overrun
//     a trailing partial group), and mixed groups store their set pixels by
//     index.
func (TRLE) encodeCapped(dst, pix []uint8, limit int) ([]uint8, bool) {
	if len(pix)%raster.BytesPerPixel != 0 {
		panic("codec: TRLE.EncodeAppend on odd-length pixel block")
	}
	n := len(pix) / raster.BytesPerPixel
	groups := (n + templatePixels - 1) / templatePixels
	tpls := bufpool.Get(groups)
	defer bufpool.Put(tpls)
	classifyTemplates(tpls, pix)

	ncodes, setPix := 0, 0
	for g := 0; g < groups; {
		t := tpls[g]
		run := byteRunLen(tpls, g, groups)
		g += run
		setPix += run * bits.OnesCount8(t)
		for ; run > 16; run -= 16 {
			tpls[ncodes] = 0xF0 | t
			ncodes++
		}
		tpls[ncodes] = uint8(run-1)<<4 | t
		ncodes++
	}
	codes := tpls[:ncodes]
	hdr := uvarintLen(uint64(ncodes))
	size := hdr + ncodes + setPix*raster.BytesPerPixel
	if size > limit-len(dst) {
		return dst, false
	}

	base := len(dst)
	dst = slices.Grow(dst, size)[:base+size]
	binary.PutUvarint(dst[base:], uint64(ncodes))
	w := base + hdr + copy(dst[base+hdr:], codes)
	g := 0 // group cursor
	for c := 0; c < len(codes); {
		t, reps := codes[c]&0x0F, int(codes[c]>>4)+1
		c++
		switch t {
		case 0:
		case 0x0F:
			for ; c < len(codes) && codes[c]&0x0F == 0x0F; c++ {
				reps += int(codes[c]>>4) + 1
			}
			w += copy(dst[w:], pix[g*groupBytes:(g+reps)*groupBytes])
		default:
			// Template bit 3 is the group's first pixel, so taking the set
			// bits highest first yields them in scan order; bit 3 of a byte
			// has 4 leading zeros.
			for gg := g; gg < g+reps; gg++ {
				for m := t; m != 0; {
					lz := bits.LeadingZeros8(m)
					m &^= 0x80 >> lz
					p := 2 * (gg*templatePixels + lz - 4)
					dst[w], dst[w+1] = pix[p], pix[p+1]
					w += 2
				}
			}
		}
		g += reps
	}
	return dst, true
}

// DecodeInto implements Codec. The two dominant code classes take bulk
// paths — all-blank templates advance the pixel cursor without touching the
// (pre-cleared) output, all-set template runs that fit the block bulk-copy
// their payload after one word-wide alpha validation — and only boundary or
// mixed-template groups walk pixels individually, with semantics (including
// error cases: truncation, underflow, blank payload pixels, non-blank
// pixels beyond the block) identical to the scalar decoder.
func (TRLE) DecodeInto(dst, enc []uint8, npix int) ([]uint8, error) {
	ncodes, hn := binary.Uvarint(enc)
	if hn <= 0 {
		return nil, fmt.Errorf("%w: TRLE header", ErrCorrupt)
	}
	if uint64(len(enc)-hn) < ncodes {
		return nil, fmt.Errorf("%w: TRLE stream truncated", ErrCorrupt)
	}
	codes := enc[hn : hn+int(ncodes)]
	payload := enc[hn+int(ncodes):]

	// The decode loop writes only non-blank pixels, so a recycled dst must
	// be cleared to make every untouched pixel blank.
	out := grow(dst, npix*raster.BytesPerPixel)
	clear(out)
	i := 0 // pixel cursor
	p := 0 // payload cursor
	for _, c := range codes {
		tpl := c & 0x0F
		reps := int(c>>4) + 1
		switch {
		case tpl == 0:
			// Blank groups never write; pixels past the block are legal for
			// blank templates (odd-sized blocks pad with blanks), so the
			// cursor saturates at npix exactly as the scalar walk did.
			i += templatePixels * reps
			if i > npix {
				i = npix
			}
		case tpl == 0x0F && i+templatePixels*reps <= npix:
			k := templatePixels * reps
			if p+2*k > len(payload) {
				return nil, fmt.Errorf("%w: TRLE payload truncated", ErrCorrupt)
			}
			seg := payload[p : p+2*k]
			if !allAlphasNonZero(seg) {
				return nil, fmt.Errorf("%w: TRLE blank pixel in payload", ErrCorrupt)
			}
			copy(out[2*i:], seg)
			i += k
			p += 2 * k
		default:
			for rep := 0; rep < reps; rep++ {
				for j := 0; j < templatePixels; j++ {
					set := tpl&(1<<(templatePixels-1-j)) != 0
					if i >= npix {
						if set {
							return nil, fmt.Errorf("%w: TRLE non-blank pixel beyond block", ErrCorrupt)
						}
						continue
					}
					if set {
						if p+2 > len(payload) {
							return nil, fmt.Errorf("%w: TRLE payload truncated", ErrCorrupt)
						}
						out[2*i], out[2*i+1] = payload[p], payload[p+1]
						if out[2*i+1] == 0 {
							return nil, fmt.Errorf("%w: TRLE blank pixel in payload", ErrCorrupt)
						}
						p += 2
					}
					i++
				}
			}
		}
	}
	if i < npix {
		return nil, fmt.Errorf("%w: TRLE codes cover %d pixels, want %d", ErrCorrupt, i, npix)
	}
	if p != len(payload) {
		return nil, fmt.Errorf("%w: TRLE payload has %d leftover bytes", ErrCorrupt, len(payload)-p)
	}
	return out, nil
}

// CheckStream implements Codec: it validates enc as a TRLE stream of
// exactly npix pixels without producing them. Pixel accounting runs a code
// at a time (a popcount per code instead of a branch per pixel); only a
// group straddling the block end walks its template bits. Every DecodeInto
// error case is detected: header damage, code/payload truncation, non-blank
// pixels beyond the block, underflow, leftover payload, blank payload
// pixels.
func (TRLE) CheckStream(enc []uint8, npix int) error {
	ncodes, hn := binary.Uvarint(enc)
	if hn <= 0 {
		return fmt.Errorf("%w: TRLE header", ErrCorrupt)
	}
	if uint64(len(enc)-hn) < ncodes {
		return fmt.Errorf("%w: TRLE stream truncated", ErrCorrupt)
	}
	codes := enc[hn : hn+int(ncodes)]
	payload := enc[hn+int(ncodes):]
	i, setb := 0, 0
	for _, c := range codes {
		tpl := c & 0x0F
		reps := int(c>>4) + 1
		pop := bits.OnesCount8(tpl)
		if i+templatePixels*reps <= npix {
			i += templatePixels * reps
			setb += pop * reps
			continue
		}
		if tpl == 0 {
			i = npix // blank groups saturate legally
			continue
		}
		for rep := 0; rep < reps; rep++ {
			if i+templatePixels <= npix {
				i += templatePixels
				setb += pop
				continue
			}
			for j := 0; j < templatePixels; j++ {
				set := tpl&(1<<(templatePixels-1-j)) != 0
				if i >= npix {
					if set {
						return fmt.Errorf("%w: TRLE non-blank pixel beyond block", ErrCorrupt)
					}
					continue
				}
				if set {
					setb++
				}
				i++
			}
		}
	}
	if i < npix {
		return fmt.Errorf("%w: TRLE codes cover %d pixels, want %d", ErrCorrupt, i, npix)
	}
	if len(payload) < 2*setb {
		return fmt.Errorf("%w: TRLE payload truncated", ErrCorrupt)
	}
	if len(payload) > 2*setb {
		return fmt.Errorf("%w: TRLE payload has %d leftover bytes", ErrCorrupt, len(payload)-2*setb)
	}
	if !allAlphasNonZero(payload) {
		return fmt.Errorf("%w: TRLE blank pixel in payload", ErrCorrupt)
	}
	return nil
}

// DecodeOver implements Codec: it composites the encoded block with
// dst in place without materializing the decoded pixels. When encFront is
// true the encoded block is the front layer (decoded over dst); otherwise
// dst is the front over the decoded block. Blank-template runs cost nothing
// on the front path and a word-wide canonicalisation on the back path
// (decoded blanks are canonical (0,0) pixels, which a blank dst pixel must
// adopt); all-set template runs feed their payload straight into
// OverU8 against the matching dst segment; their payload is not re-scanned
// for blank pixels, which CheckStream has rejected already. dst must hold
// exactly npix pixels. Streams must pass CheckStream first: on a stream it
// rejects, the result is memory-safe but unspecified — DecodeOver may or
// may not report ErrCorrupt, and may leave dst partially composited. On
// success it returns npix — the same over-pixel count the decode-then-OverU8
// path reports.
func (TRLE) DecodeOver(dst, enc []uint8, npix int, encFront bool) (int, error) {
	if len(dst) != npix*raster.BytesPerPixel {
		panic("codec: TRLE.DecodeOver dst length mismatch")
	}
	ncodes, hn := binary.Uvarint(enc)
	if hn <= 0 {
		return 0, fmt.Errorf("%w: TRLE header", ErrCorrupt)
	}
	if uint64(len(enc)-hn) < ncodes {
		return 0, fmt.Errorf("%w: TRLE stream truncated", ErrCorrupt)
	}
	codes := enc[hn : hn+int(ncodes)]
	payload := enc[hn+int(ncodes):]
	i := 0 // pixel cursor
	p := 0 // payload cursor
	pixels := 0
	for _, c := range codes {
		tpl := c & 0x0F
		reps := int(c>>4) + 1
		switch {
		case tpl == 0:
			end := i + templatePixels*reps
			if end > npix {
				end = npix
			}
			if !encFront {
				compose.OverU8Runs(dst, []compose.Run{{Off: i, N: end - i}}, false)
			}
			pixels += end - i
			i = end
		case tpl == 0x0F && i+templatePixels*reps <= npix:
			k := templatePixels * reps
			if p+2*k > len(payload) {
				return pixels, fmt.Errorf("%w: TRLE payload truncated", ErrCorrupt)
			}
			seg := payload[p : p+2*k]
			dseg := dst[2*i : 2*(i+k)]
			if encFront {
				compose.OverU8(dseg, seg, dseg)
			} else {
				compose.OverU8(dseg, dseg, seg)
			}
			pixels += k
			i += k
			p += 2 * k
		default:
			for rep := 0; rep < reps; rep++ {
				for j := 0; j < templatePixels; j++ {
					set := tpl&(1<<(templatePixels-1-j)) != 0
					if i >= npix {
						if set {
							return pixels, fmt.Errorf("%w: TRLE non-blank pixel beyond block", ErrCorrupt)
						}
						continue
					}
					if set {
						if p+2 > len(payload) {
							return pixels, fmt.Errorf("%w: TRLE payload truncated", ErrCorrupt)
						}
						pv, pa := payload[p], payload[p+1]
						if pa == 0 {
							return pixels, fmt.Errorf("%w: TRLE blank pixel in payload", ErrCorrupt)
						}
						// The fa switch is written out (OverPixel is over the
						// inlining budget; OverBlend is not).
						if encFront {
							if pa == 255 {
								dst[2*i], dst[2*i+1] = pv, pa
							} else {
								dst[2*i], dst[2*i+1] = compose.OverBlend(pv, pa, dst[2*i], dst[2*i+1])
							}
						} else {
							switch fa := dst[2*i+1]; fa {
							case 255:
							case 0:
								dst[2*i], dst[2*i+1] = pv, pa
							default:
								dst[2*i], dst[2*i+1] = compose.OverBlend(dst[2*i], fa, pv, pa)
							}
						}
						p += 2
					} else if !encFront && dst[2*i+1] == 0 {
						// A decoded blank back pixel is canonical (0,0); a
						// blank dst front pixel passes it through verbatim.
						dst[2*i] = 0
					}
					pixels++
					i++
				}
			}
		}
	}
	if i < npix {
		return pixels, fmt.Errorf("%w: TRLE codes cover %d pixels, want %d", ErrCorrupt, i, npix)
	}
	if p != len(payload) {
		return pixels, fmt.Errorf("%w: TRLE payload has %d leftover bytes", ErrCorrupt, len(payload)-p)
	}
	return pixels, nil
}
