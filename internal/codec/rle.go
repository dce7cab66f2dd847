package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
)

// RLE is classic run-length encoding adapted to value+alpha pixels: a run of
// up to 255 identical (value, alpha) pairs is stored as the three bytes
// [count, value, alpha]. On gray images whose values vary pixel to pixel it
// compresses little beyond blank runs — the weakness of plain RLE the paper
// points out — but blank regions collapse 170:1.
type RLE struct{}

// Name implements Codec.
func (RLE) Name() string { return "rle" }

// EncodeAppend implements Codec. Two word-wide paths split RLE's workload
// by regime. Literal stretches — where no two adjacent pixels match, the
// shape of dense varying images — are detected four pairs at a time (two
// overlapping loads, one XOR, a zero-lane test) and emitted as a batched
// append of four single-pixel runs, so the broadcast-and-compare machinery
// of pixelRunLen only ever runs on pixels already known to start a run of
// two or more. Output is byte-identical to a per-pixel greedy scan (runs
// are maximal, capped at 255).
func (RLE) EncodeAppend(dst, pix []uint8) []uint8 {
	out, _ := RLE{}.encodeCapped(dst, pix, math.MaxInt)
	return out
}

// encodeCapped implements Codec; it is the one RLE encode kernel. rleFits
// decides the budget before a byte is written — a block that does not fit
// leaves dst as it was — so the write pass below carries no budget check.
func (RLE) encodeCapped(dst, pix []uint8, limit int) ([]uint8, bool) {
	if len(pix)%raster.BytesPerPixel != 0 {
		panic("codec: RLE.EncodeAppend on odd-length pixel block")
	}
	if !rleFits(pix, limit-len(dst)) {
		return dst, false
	}
	n := len(pix) / raster.BytesPerPixel
	for i := 0; i < n; {
		// Literal fast path: lane k of w0^w1 is zero exactly when pixel
		// i+k equals pixel i+k+1, so a word with no zero lane proves the
		// next four pixels are each a maximal run of one. It needs five
		// pixels in reach.
		for ; i+5 <= n; i += 4 {
			w0 := binary.LittleEndian.Uint64(pix[2*i:])
			w1 := binary.LittleEndian.Uint64(pix[2*i+2:])
			if hasZeroLane16(w0 ^ w1) {
				break
			}
			dst = append(dst,
				1, uint8(w0), uint8(w0>>8),
				1, uint8(w0>>16), uint8(w0>>24),
				1, uint8(w0>>32), uint8(w0>>40),
				1, uint8(w0>>48), uint8(w0>>56))
		}
		if i >= n {
			break
		}
		run := rleRunAt(pix, i, n)
		dst = append(dst, uint8(run), pix[2*i], pix[2*i+1])
		i += run
	}
	return dst, true
}

// rleFits reports whether RLE's encoding of pix takes at most budget bytes,
// without writing it. It walks encodeCapped's greedy parse — the same
// literal word test, then rleRunAt — at three bytes a run, and stops as
// soon as the runs so far pass the budget or the pixels left cannot, even
// at three bytes each; so a block that fits is sized only until that
// holds, and one that does not only until the budget runs out.
//
// With useAVX2 each round first counts run starts sixteen pixels per
// compare (runStartsAVX2) and charges three bytes for each start before
// the last one it found, where the walk resumes. The count is the parse's
// exactly: the kernel stops before a chunk of sixteen equal pairs, so
// every run it prices is shorter than 32 pixels, and a run that may reach
// the 255 cap is left to rleRunAt. Its chunks read at most up to pixel
// n-1, and it stops early only once the starts alone pass the budget.
func rleFits(pix []uint8, budget int) bool {
	if budget < 0 {
		return false
	}
	n := len(pix) / raster.BytesPerPixel
	for i := 0; i < n; {
		if 3*(n-i) <= budget {
			return true
		}
		if useAVX2 {
			starts, last := runStartsAVX2(pix[2*i:], (n-i-1)/16, budget/3)
			if budget -= 3 * starts; budget < 0 {
				return false
			}
			i += last
		}
		// Four literals are twelve bytes, so the literal loop may take
		// budget/12 rounds.
		for last := min(n-5, i+4*(budget/12)-4); i <= last; i += 4 {
			w0 := binary.LittleEndian.Uint64(pix[2*i:])
			w1 := binary.LittleEndian.Uint64(pix[2*i+2:])
			if hasZeroLane16(w0 ^ w1) {
				break
			}
			budget -= 12
		}
		if i >= n {
			break
		}
		if budget < 3 {
			return false
		}
		budget -= 3
		i += rleRunAt(pix, i, n)
	}
	return budget >= 0
}

// rleRunAt is the length of the greedy run that starts at pixel i of the n
// in pix: 1 when pixel i+1 differs, else pixelRunLen capped at 255.
func rleRunAt(pix []uint8, i, n int) int {
	if i+1 < n && (pix[2*i] != pix[2*i+2] || pix[2*i+1] != pix[2*i+3]) {
		return 1
	}
	return pixelRunLen(pix, i, min(i+255, n))
}

// DecodeInto implements Codec. Runs are filled eight bytes per store. Both
// overflow (more than npix pixels) and underflow (a short stream producing
// fewer than npix pixels) are rejected with ErrCorrupt: a block message
// must decode to exactly the block's pixel count.
func (RLE) DecodeInto(dst, enc []uint8, npix int) ([]uint8, error) {
	if len(enc)%3 != 0 {
		return nil, fmt.Errorf("%w: RLE stream length %d not a multiple of 3", ErrCorrupt, len(enc))
	}
	want := npix * raster.BytesPerPixel
	out := grow(dst, want)
	w := 0
	for i := 0; i < len(enc); i += 3 {
		run, v, a := int(enc[i]), enc[i+1], enc[i+2]
		if run == 0 {
			return nil, fmt.Errorf("%w: RLE zero-length run", ErrCorrupt)
		}
		if w+run*raster.BytesPerPixel > want {
			return nil, fmt.Errorf("%w: RLE decoded more than %d pixels", ErrCorrupt, npix)
		}
		fillPixelRun(out[w:w+run*raster.BytesPerPixel], v, a)
		w += run * raster.BytesPerPixel
	}
	if w != want {
		return nil, fmt.Errorf("%w: RLE decoded %d pixels, want %d", ErrCorrupt, w/raster.BytesPerPixel, npix)
	}
	return out, nil
}

// CheckStream implements Codec: it validates enc as an RLE stream of
// exactly npix pixels without producing them, applying every check
// DecodeInto does (stream framing, zero runs, overflow, underflow).
func (RLE) CheckStream(enc []uint8, npix int) error {
	if len(enc)%3 != 0 {
		return fmt.Errorf("%w: RLE stream length %d not a multiple of 3", ErrCorrupt, len(enc))
	}
	w := 0
	i := 0
	for i < len(enc) {
		// Singles fast path: a run byte of 1 under the pixel budget needs
		// no zero-run or overflow check of its own. One word load checks
		// the run bytes of three consecutive triples at once.
		for i+9 <= len(enc) && w+3 <= npix &&
			binary.LittleEndian.Uint64(enc[i:])&rleRunLanes == rleRunOnes {
			w += 3
			i += 9
		}
		for i < len(enc) && enc[i] == 1 && w < npix {
			w++
			i += 3
		}
		if i >= len(enc) {
			break
		}
		run := int(enc[i])
		i += 3
		if run == 0 {
			return fmt.Errorf("%w: RLE zero-length run", ErrCorrupt)
		}
		w += run
		if w > npix {
			return fmt.Errorf("%w: RLE decoded more than %d pixels", ErrCorrupt, npix)
		}
	}
	if w != npix {
		return fmt.Errorf("%w: RLE decoded %d pixels, want %d", ErrCorrupt, w, npix)
	}
	return nil
}

// rleLongRun is the run length from which DecodeOver hands a run to
// OverU8Runs, which composites it through OverU8 against a block of the
// run's pixel. Below it the per-call overhead outweighs the kernel, so short
// runs — the regime of dense varying images, where nearly every run is a
// single pixel — composite in a scalar loop written out in place
// (compose.OverBlend inlines; compose.OverPixel does not, and a call per
// pixel is exactly the cost this path exists to avoid).
const rleLongRun = 16

// rleRunLanes selects the run-count bytes of three consecutive [count,v,a]
// triples viewed as one little-endian word (bytes 0, 3 and 6); rleRunOnes
// is what that mask reads when all three runs have length one. One masked
// compare therefore certifies three singles at a time.
const (
	rleRunLanes = uint64(0x00FF0000FF0000FF)
	rleRunOnes  = uint64(0x0001000001000001)
)

// DecodeOver implements Codec: it composites the encoded block with
// dst in place without materializing the decoded block. Short runs blend
// directly against dst pixel by pixel; long runs go to OverU8Runs, where a
// blank front run costs nothing and a blank back run is OverU8 against a
// zero block. When encFront is true the encoded block is the front layer
// (decoded over dst); otherwise dst is the front. dst must hold exactly
// npix pixels. Streams must pass CheckStream first: on a stream it rejects,
// the result is memory-safe but unspecified — DecodeOver may or may not
// report ErrCorrupt, and may leave dst partially composited. It returns the
// number of pixels passed through the over operator (npix on success) — the
// same count the decode-then-OverU8 path reports.
func (RLE) DecodeOver(dst, enc []uint8, npix int, encFront bool) (int, error) {
	if len(dst) != npix*raster.BytesPerPixel {
		panic("codec: RLE.DecodeOver dst length mismatch")
	}
	if len(enc)%3 != 0 {
		return 0, fmt.Errorf("%w: RLE stream length %d not a multiple of 3", ErrCorrupt, len(enc))
	}
	var single [1]compose.Run
	w, pixels := 0, 0
	i := 0
	for i < len(enc) {
		// Singles fast path: dense varying data arrives as long stretches
		// of [1,v,a] triples, and on them the general path's per-run
		// dispatch (run classification, segment arithmetic, inner-loop
		// setup) costs more than the blend itself. This loop strips a
		// single down to load, switch, blend.
		if enc[i] == 1 && w < npix {
			start := w
			if encFront {
				for i+9 <= len(enc) && w+3 <= npix {
					// The fixed-size reslices collapse the per-pixel bounds
					// checks into one per three-triple step.
					e := enc[i : i+9 : i+9]
					x := binary.LittleEndian.Uint64(e)
					if x&rleRunLanes != rleRunOnes {
						break
					}
					k := w * raster.BytesPerPixel
					d := dst[k : k+6 : k+6]
					if a := uint8(x >> 16); a == 255 {
						d[0], d[1] = uint8(x>>8), a
					} else if a != 0 {
						d[0], d[1] = compose.OverBlend(uint8(x>>8), a, d[0], d[1])
					}
					if a := uint8(x >> 40); a == 255 {
						d[2], d[3] = uint8(x>>32), a
					} else if a != 0 {
						d[2], d[3] = compose.OverBlend(uint8(x>>32), a, d[2], d[3])
					}
					if a := e[8]; a == 255 {
						d[4], d[5] = uint8(x>>56), a
					} else if a != 0 {
						d[4], d[5] = compose.OverBlend(uint8(x>>56), a, d[4], d[5])
					}
					w += 3
					i += 9
				}
				for i+3 <= len(enc) && enc[i] == 1 && w < npix {
					k := w * raster.BytesPerPixel
					v, a := enc[i+1], enc[i+2]
					switch a {
					case 0:
					case 255:
						dst[k], dst[k+1] = v, a
					default:
						dst[k], dst[k+1] = compose.OverBlend(v, a, dst[k], dst[k+1])
					}
					w++
					i += 3
				}
			} else {
				for i+9 <= len(enc) && w+3 <= npix {
					e := enc[i : i+9 : i+9]
					x := binary.LittleEndian.Uint64(e)
					if x&rleRunLanes != rleRunOnes {
						break
					}
					k := w * raster.BytesPerPixel
					d := dst[k : k+6 : k+6]
					switch fa := d[1]; fa {
					case 255:
					case 0:
						d[0], d[1] = uint8(x>>8), uint8(x>>16)
					default:
						d[0], d[1] = compose.OverBlend(d[0], fa, uint8(x>>8), uint8(x>>16))
					}
					switch fa := d[3]; fa {
					case 255:
					case 0:
						d[2], d[3] = uint8(x>>32), uint8(x>>40)
					default:
						d[2], d[3] = compose.OverBlend(d[2], fa, uint8(x>>32), uint8(x>>40))
					}
					switch fa := d[5]; fa {
					case 255:
					case 0:
						d[4], d[5] = uint8(x>>56), e[8]
					default:
						d[4], d[5] = compose.OverBlend(d[4], fa, uint8(x>>56), e[8])
					}
					w += 3
					i += 9
				}
				for i+3 <= len(enc) && enc[i] == 1 && w < npix {
					k := w * raster.BytesPerPixel
					switch fa := dst[k+1]; fa {
					case 255:
					case 0:
						dst[k], dst[k+1] = enc[i+1], enc[i+2]
					default:
						dst[k], dst[k+1] = compose.OverBlend(dst[k], fa, enc[i+1], enc[i+2])
					}
					w++
					i += 3
				}
			}
			pixels += w - start
			continue
		}
		run, v, a := int(enc[i]), enc[i+1], enc[i+2]
		i += 3
		if run == 0 {
			return pixels, fmt.Errorf("%w: RLE zero-length run", ErrCorrupt)
		}
		if w+run > npix {
			return pixels, fmt.Errorf("%w: RLE decoded more than %d pixels", ErrCorrupt, npix)
		}
		if run >= rleLongRun {
			single[0] = compose.Run{Off: w, N: run, V: v, A: a}
			pixels += compose.OverU8Runs(dst, single[:], encFront)
			w += run
			continue
		}
		lo, hi := w*raster.BytesPerPixel, (w+run)*raster.BytesPerPixel
		if encFront {
			switch a {
			case 0:
				// Blank front run: dst wins untouched.
			case 255:
				for k := lo; k < hi; k += raster.BytesPerPixel {
					dst[k], dst[k+1] = v, a
				}
			default:
				for k := lo; k < hi; k += raster.BytesPerPixel {
					dst[k], dst[k+1] = compose.OverBlend(v, a, dst[k], dst[k+1])
				}
			}
		} else {
			for k := lo; k < hi; k += raster.BytesPerPixel {
				switch fa := dst[k+1]; fa {
				case 255:
				case 0:
					// Blank front passes the decoded back pixel through
					// verbatim, even a non-canonical one — same as OverU8.
					dst[k], dst[k+1] = v, a
				default:
					dst[k], dst[k+1] = compose.OverBlend(dst[k], fa, v, a)
				}
			}
		}
		pixels += run
		w += run
	}
	if w != npix {
		return pixels, fmt.Errorf("%w: RLE decoded %d pixels, want %d", ErrCorrupt, w, npix)
	}
	return pixels, nil
}

// EncodeMaskRLE run-length encodes a binary mask as in the paper's Figure 4:
// one byte per run (runs capped at 255), colors alternating from the first
// element. It returns the run bytes and the color of the first run.
func EncodeMaskRLE(mask []bool) (runs []uint8, first bool) {
	if len(mask) == 0 {
		return nil, false
	}
	first = mask[0]
	cur := mask[0]
	run := 0
	for _, b := range mask {
		if b == cur {
			if run == 255 {
				// Cap reached: emit the run plus a zero-length run of the
				// opposite color so decode's alternation stays in sync.
				runs = append(runs, 255, 0)
				run = 0
			}
			run++
			continue
		}
		runs = append(runs, uint8(run))
		cur, run = b, 1
	}
	runs = append(runs, uint8(run))
	return runs, first
}

// DecodeMaskRLE inverts EncodeMaskRLE.
func DecodeMaskRLE(runs []uint8, first bool) []bool {
	var out []bool
	cur := first
	for _, r := range runs {
		for j := uint8(0); j < r; j++ {
			out = append(out, cur)
		}
		cur = !cur
	}
	return out
}
