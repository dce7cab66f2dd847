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
//   - pixels to codes: templateNibbles writes every group's template into a
//     nibble bitmap, sixteen groups a 64-bit word, at the front of one
//     pooled scratch buffer. The run coder reads the bitmap a word at a
//     time. One XOR of the word with itself shifted by a nibble leaves a
//     non-zero nibble exactly where a group starts a new run, and one
//     trailing-zero count per run start finds them, so sixteen groups inside
//     a run cost one XOR; the payload size is a popcount per word, since the
//     nibbles past the last group are zero. A run of r templates becomes
//     ⌈r/16⌉ codes in the rest of the scratch buffer;
//   - codes to payload: the output size is now exact, so the budget is
//     checked once, before anything is written — a block that does not fit
//     leaves dst as it was — and dst grows once. The payload pass walks the
//     codes, not the templates: consecutive all-set codes are one bulk copy
//     (an all-set template implies a full group, so the copy cannot overrun
//     a trailing partial group), and each mixed group packs its set pixels
//     out of one word load through its laneSpread row (packGroup).
func (TRLE) encodeCapped(dst, pix []uint8, limit int) ([]uint8, bool) {
	if len(pix)%raster.BytesPerPixel != 0 {
		panic("codec: TRLE.EncodeAppend on odd-length pixel block")
	}
	n := len(pix) / raster.BytesPerPixel
	groups := (n + templatePixels - 1) / templatePixels
	nbm := bitmapBytes(groups)
	scratch := bufpool.Get(nbm + groups) // a run takes a code per group at most
	defer bufpool.Put(scratch)
	bm, codes := scratch[:nbm], scratch[nbm:]
	templateNibbles(bm, pix)

	ncodes, setPix := 0, 0
	start, t := 0, uint8(0) // the run being coded and its template
	if groups > 0 {
		t = bm[0] & 0x0F
	}
	prev := uint64(t) // the nibble before the word: no boundary at group 0
	for wi := 0; wi < nbm; wi += 8 {
		w := binary.LittleEndian.Uint64(bm[wi:])
		setPix += bits.OnesCount64(w)
		d := w ^ (w<<4 | prev) // nibble k is non-zero where group k starts a run
		prev = w >> 60
		for b := (d | d>>1 | d>>2 | d>>3) & 0x1111111111111111; b != 0; b &= b - 1 {
			k := bits.TrailingZeros64(b)
			g := 2*wi + k/4
			if g >= groups {
				break // the zero nibbles past the last group
			}
			ncodes = putRunCodes(codes, ncodes, t, g-start)
			start, t = g, uint8(w>>k)&0x0F
		}
	}
	if groups > 0 {
		ncodes = putRunCodes(codes, ncodes, t, groups-start)
	}
	codes = codes[:ncodes]
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
			m := &laneSpread[t]
			pop := 2 * bits.OnesCount8(t)
			for gg := g; gg < g+reps; gg++ {
				x := packGroup(loadWord(pix[gg*groupBytes:]), m)
				if w+8 <= len(dst) {
					binary.LittleEndian.PutUint64(dst[w:], x) // the next group overwrites the rest
				} else {
					var b [8]uint8
					binary.LittleEndian.PutUint64(b[:], x)
					copy(dst[w:w+pop], b[:])
				}
				w += pop
			}
		}
		g += reps
	}
	return dst, true
}

// putRunCodes stores the ⌈run/16⌉ codes of a run of run groups of template
// t at codes[n:] and returns the new code count.
func putRunCodes(codes []uint8, n int, t uint8, run int) int {
	for ; run > 16; run -= 16 {
		codes[n] = 0xF0 | t
		n++
	}
	codes[n] = uint8(run-1)<<4 | t
	return n + 1
}

// DecodeInto implements Codec: CheckStream, then decodeSpans writes each
// pixel once — a non-blank span is copied out of the spread scratch, a
// blank span cleared — so its error cases are exactly CheckStream's.
func (TRLE) DecodeInto(dst, enc []uint8, npix int) ([]uint8, error) {
	if err := (TRLE{}).CheckStream(enc, npix); err != nil {
		return nil, err
	}
	out := grow(dst, npix*raster.BytesPerPixel)
	codes, payload, _ := splitTRLE(enc)
	if err := decodeSpans(out, codes, payload, npix, spanCopy); err != nil {
		return nil, err
	}
	return out, nil
}

// splitTRLE splits a TRLE stream into its codes and its payload.
func splitTRLE(enc []uint8) (codes, payload []uint8, err error) {
	ncodes, hn := binary.Uvarint(enc)
	if hn <= 0 {
		return nil, nil, fmt.Errorf("%w: TRLE header", ErrCorrupt)
	}
	if uint64(len(enc)-hn) < ncodes {
		return nil, nil, fmt.Errorf("%w: TRLE stream truncated", ErrCorrupt)
	}
	return enc[hn : hn+int(ncodes)], enc[hn+int(ncodes):], nil
}

// CheckStream implements Codec: it validates enc as a TRLE stream of
// exactly npix pixels without producing them. Pixel accounting runs a code
// at a time (a popcount per code instead of a branch per pixel); only a
// group straddling the block end walks its template bits. Every DecodeInto
// error case is detected: header damage, code/payload truncation, non-blank
// pixels beyond the block, underflow, leftover payload, blank payload
// pixels.
func (TRLE) CheckStream(enc []uint8, npix int) error {
	codes, payload, err := splitTRLE(enc)
	if err != nil {
		return err
	}
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

// laneSpread maps each template to the lane masks that move a group's
// packed payload into place. A group's set pixels travel packed, in scan
// order, so set lane j (lane 0 is the first pixel, template bit 3) comes
// from packed lane j-d, where d is the number of blank lanes before it;
// row t's entry d selects the set lanes with that d. Shifting the packed
// word left by 16·d and masking with entry d, for d = 0…3, spreads it
// (spreadGroup), with blank lanes coming out as (0, 0); the same masks and
// right shifts pack a group (packGroup).
var laneSpread = func() (tab [16][templatePixels]uint64) {
	for t := range tab {
		d := 0
		for j := 0; j < templatePixels; j++ {
			if t&(1<<(templatePixels-1-j)) == 0 {
				d++
				continue
			}
			tab[t][d] |= 0xFFFF << (16 * j)
		}
	}
	return tab
}()

// spreadGroup expands the packed set pixels at the bottom of w into the
// four-pixel word of the group whose laneSpread row is m.
func spreadGroup(w uint64, m *[templatePixels]uint64) uint64 {
	return w&m[0] | w<<16&m[1] | w<<32&m[2] | w<<48&m[3]
}

// packGroup is spreadGroup's inverse: it gathers the set pixels of the
// four-pixel word x into its bottom lanes, in scan order.
func packGroup(x uint64, m *[templatePixels]uint64) uint64 {
	return x&m[0] | x&m[1]>>16 | x&m[2]>>32 | x&m[3]>>48
}

// loadWord reads the little-endian word at the start of b, padding a short
// b with zero bytes, so no read runs past b.
func loadWord(b []uint8) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w [8]uint8
	copy(w[:], b)
	return binary.LittleEndian.Uint64(w[:])
}

// spanScratch is how many bytes of decoded pixels decodeSpans expands
// before it hands them on: 512 pixels on the stack.
const spanScratch = 1024

// spanOp is what decodeSpans does with each decoded span of dst.
type spanOp uint8

const (
	spanBack  spanOp = iota // dst over the span: DecodeOver, encFront false
	spanFront               // the span over dst: DecodeOver, encFront true
	spanCopy                // the span replaces dst: DecodeInto
)

// DecodeOver implements Codec: it composites the encoded block with dst in
// place, and every pixel reaches the over operator through compose.OverU8
// (decodeSpans). When encFront is true the encoded block is the front layer
// (decoded over dst); otherwise dst is the front over the decoded block.
// The result is byte-identical to decoding and calling OverU8: a spread
// blank lane is the canonical (0, 0) a decoded blank is, and a blank back
// span is a blank back run, which OverU8Runs blends against a zero block;
// on the front path a blank span costs nothing (a blank front keeps the
// back).
//
// dst must hold exactly npix pixels. Streams must pass CheckStream first:
// the payload is not re-scanned for blank pixels, and on a stream
// CheckStream rejects the result is memory-safe but unspecified —
// DecodeOver may or may not report ErrCorrupt, and may leave dst partially
// composited. On success it returns npix, the same over-pixel count the
// decode-then-OverU8 path reports.
func (TRLE) DecodeOver(dst, enc []uint8, npix int, encFront bool) (int, error) {
	if len(dst) != npix*raster.BytesPerPixel {
		panic("codec: TRLE.DecodeOver dst length mismatch")
	}
	codes, payload, err := splitTRLE(enc)
	if err == nil {
		op := spanBack
		if encFront {
			op = spanFront
		}
		err = decodeSpans(dst, codes, payload, npix, op)
	}
	if err != nil {
		return 0, err
	}
	return npix, nil
}

// decodeSpans walks a TRLE stream of npix pixels and applies op to dst one
// span at a time. A run of non-blank codes is expanded into a stack scratch
// of spanScratch bytes — all-set groups copied from the payload, mixed
// groups spread a word at a time (spreadGroup) — and handed on with one
// putSpan; a span ends at a blank code, when the scratch is full, and at
// the end of the stream, and a trailing partial group puts only the pixels
// inside the block. Consecutive blank codes make one blank span. Payload
// reads never run past the payload, and writes never past dst, whatever
// the stream.
func decodeSpans(dst, codes, payload []uint8, npix int, op spanOp) error {
	var scratch [spanScratch]uint8
	i := 0 // pixel cursor; a trailing group may take it past npix
	p := 0 // payload cursor
	s := 0 // scratch bytes holding pixels [i-s/2, i)
	for c := 0; c < len(codes); {
		t, reps := codes[c]&0x0F, int(codes[c]>>4)+1
		c++
		if t == 0 {
			putSpan(dst, scratch[:s], i-s/2, op)
			s = 0
			for ; c < len(codes) && codes[c]&0x0F == 0; c++ {
				reps += int(codes[c]>>4) + 1
			}
			start := i
			i += templatePixels * reps
			if end := min(i, npix); end > start {
				switch op {
				case spanBack:
					compose.OverU8Runs(dst, []compose.Run{{Off: start, N: end - start}}, false)
				case spanCopy:
					clear(dst[start*raster.BytesPerPixel : end*raster.BytesPerPixel])
				}
			}
			continue
		}
		k := templatePixels * reps
		if s+2*k > len(scratch) {
			putSpan(dst, scratch[:s], i-s/2, op)
			s = 0
		}
		if t == 0x0F {
			if p+2*k > len(payload) {
				return fmt.Errorf("%w: TRLE payload truncated", ErrCorrupt)
			}
			copy(scratch[s:s+2*k], payload[p:])
			p += 2 * k
		} else {
			pop := 2 * bits.OnesCount8(t)
			if p+pop*reps > len(payload) {
				return fmt.Errorf("%w: TRLE payload truncated", ErrCorrupt)
			}
			m := &laneSpread[t]
			for g := s; g < s+2*k; g += groupBytes {
				binary.LittleEndian.PutUint64(scratch[g:], spreadGroup(loadWord(payload[p:]), m))
				p += pop
			}
		}
		s += 2 * k
		i += k
	}
	putSpan(dst, scratch[:s], i-s/2, op)
	if i < npix {
		return fmt.Errorf("%w: TRLE codes cover %d pixels, want %d", ErrCorrupt, i, npix)
	}
	if p != len(payload) {
		return fmt.Errorf("%w: TRLE payload has %d leftover bytes", ErrCorrupt, len(payload)-p)
	}
	return nil
}

// putSpan applies op to the decoded pixels span, which start at pixel
// start, and the matching pixels of dst. Pixels at or past the end of dst,
// the blank tail of a trailing partial group, are dropped.
func putSpan(dst, span []uint8, start int, op spanOp) {
	lo := start * raster.BytesPerPixel
	n := min(len(span), len(dst)-lo)
	if n <= 0 {
		return
	}
	seg := dst[lo : lo+n]
	switch op {
	case spanFront:
		compose.OverU8(seg, span[:n], seg)
	case spanBack:
		compose.OverU8(seg, seg, span[:n])
	default:
		copy(seg, span)
	}
}
