package codec

// Word-wide scanning primitives shared by the codecs. A value+alpha pixel is
// two bytes, so one little-endian uint64 load covers four pixels with the
// alpha bytes in the odd lanes. Blank/non-blank classification, run-length
// detection and template extraction all reduce to a handful of masked
// integer operations per four (or, for byte streams, eight) elements,
// replacing the per-pixel bounds-checked branches of the scalar encoders.
// Where the CPU has AVX2, TRLE's template bitmap and payload check and
// RLE's run-start count take 32 or sixteen pixels per vector instead
// (words_amd64.s). DESIGN.md §14 documents the layout and the identities
// below.

import (
	"encoding/binary"
	"math/bits"

	"rtcomp/internal/compose"
)

const (
	// alphaLanes selects the four alpha bytes of a four-pixel word.
	alphaLanes = uint64(0xFF00FF00FF00FF00)
	// loBytes selects the low byte of each 16-bit lane (after shifting the
	// alphas down into it).
	loBytes = uint64(0x00FF00FF00FF00FF)
	// carryBits is where an alpha byte's non-zeroness lands after the
	// carry trick below: bit 8 of each 16-bit lane.
	carryBits = uint64(0x0100010001000100)
)

// wordTemplate returns the TRLE template of the four pixels of a
// little-endian word load: bit 3 is set when the first (lowest-address)
// pixel has a non-zero alpha, bit 0 when the last does. The carry trick:
// with each alpha isolated in the low byte of its 16-bit lane, adding 0x00FF
// per lane carries into bit 8 exactly when the alpha is non-zero, and lanes
// cannot carry into each other because the high bytes are zero. One
// multiply then gathers the four carry bits (8, 24, 40, 56) into bits 63
// down to 60: each is shifted by one addend of the constant (55, 38, 21, 4)
// and every other product lands below bit 47 or past bit 63, so nothing
// carries into the result.
func wordTemplate(w uint64) uint8 {
	nz := ((w>>8)&loBytes + loBytes) & carryBits
	return uint8(nz * 0x0080004000200010 >> 60)
}

// useAVX2 is compose.HasAVX2, the module's one CPU probe, read once: when
// it holds, templateNibbles and allAlphasNonZero hand their aligned
// prefixes to the AVX2 kernels of words_amd64.s, and rleFits counts run
// starts with runStartsAVX2. Tests flip it to run both paths.
var useAVX2 = compose.HasAVX2()

// bitmapBytes is the size of the nibble bitmap of groups template groups:
// one 64-bit word per sixteen groups.
func bitmapBytes(groups int) int { return 8 * ((groups + 15) / 16) }

// templateNibbles writes the TRLE template of every four-pixel group of pix
// into the nibble bitmap bm: group g's template is nibble g mod 16 of the
// little-endian word g/16, so byte g/2, low nibble for even g. A trailing
// partial group counts as a group whose missing pixels are blank. bm must
// hold bitmapBytes(groups) bytes; whatever it held before, every nibble past
// the last group comes out zero. With useAVX2 the 64-byte-aligned prefix of
// pix goes to templateNibblesAVX2, 32 pixels a pass, and the rest to
// templateNibblesGo, which starts at the next byte of bm; otherwise
// templateNibblesGo takes it all.
func templateNibbles(bm, pix []uint8) {
	n := 0
	if useAVX2 {
		n = len(pix) &^ 63
		templateNibblesAVX2(bm, pix[:n])
	}
	templateNibblesGo(bm[n/16:], pix[n:])
}

// templateNibblesGo is templateNibbles' portable definition. It clears bm,
// then stores eight templates per 32-bit store: one OR of eight word loads
// under alphaLanes tells an all-blank octet (most of a sparse partial),
// whose templates are all zero, and other octets classify word by word.
// The groups after the last whole 64 bytes go a nibble at a time.
func templateNibblesGo(bm, pix []uint8) {
	clear(bm)
	for len(pix) >= 64 && len(bm) >= 4 {
		q := pix[:64:64]
		w0, w1 := binary.LittleEndian.Uint64(q), binary.LittleEndian.Uint64(q[8:])
		w2, w3 := binary.LittleEndian.Uint64(q[16:]), binary.LittleEndian.Uint64(q[24:])
		w4, w5 := binary.LittleEndian.Uint64(q[32:]), binary.LittleEndian.Uint64(q[40:])
		w6, w7 := binary.LittleEndian.Uint64(q[48:]), binary.LittleEndian.Uint64(q[56:])
		if (w0|w1|w2|w3|w4|w5|w6|w7)&alphaLanes != 0 {
			binary.LittleEndian.PutUint32(bm, uint32(wordTemplate(w0))|uint32(wordTemplate(w1))<<4|
				uint32(wordTemplate(w2))<<8|uint32(wordTemplate(w3))<<12|
				uint32(wordTemplate(w4))<<16|uint32(wordTemplate(w5))<<20|
				uint32(wordTemplate(w6))<<24|uint32(wordTemplate(w7))<<28)
		}
		pix, bm = pix[64:], bm[4:]
	}
	for g := 0; len(pix) > 0; g++ {
		bm[g/2] |= wordTemplate(loadWord(pix)) << (4 * (g & 1))
		pix = pix[min(8, len(pix)):]
	}
}

// hasZeroLane16 reports whether any 16-bit lane of x is zero — the lane
// analogue of the classic has-zero-byte trick. Cross-lane borrows can set a
// spurious high bit, but only above a lane that really is zero, so the
// boolean answer is exact.
func hasZeroLane16(x uint64) bool {
	const (
		loLanes = uint64(0x0001000100010001)
		hiLanes = uint64(0x8000800080008000)
	)
	return (x-loLanes) & ^x & hiLanes != 0
}

// pixelRunLen returns the length of the run of pixels identical to pixel i
// in pix (value+alpha interleaved), scanning at most to pixel limit. It
// compares four pixels per load: XOR against the broadcast pattern zeroes
// matching 16-bit lanes, so the first mismatch is the lowest non-zero lane.
// Long runs — RLE's blank stretches — go sixteen pixels per step first.
func pixelRunLen(pix []uint8, i, limit int) int {
	pat := broadcastPixel(pix[2*i], pix[2*i+1])
	j := i
	for ; j+16 <= limit; j += 16 {
		q := pix[2*j : 2*j+32]
		x := (binary.LittleEndian.Uint64(q) ^ pat) | (binary.LittleEndian.Uint64(q[8:]) ^ pat) |
			(binary.LittleEndian.Uint64(q[16:]) ^ pat) | (binary.LittleEndian.Uint64(q[24:]) ^ pat)
		if x != 0 {
			break
		}
	}
	for j+4 <= limit {
		x := binary.LittleEndian.Uint64(pix[2*j:]) ^ pat
		if x != 0 {
			j += bits.TrailingZeros64(x) / 16
			if j > limit {
				j = limit
			}
			return j - i
		}
		j += 4
	}
	for j < limit && pix[2*j] == pix[2*i] && pix[2*j+1] == pix[2*i+1] {
		j++
	}
	return j - i
}

// runStartsGo is runStartsAVX2's definition. Chunk c of pix is pixels
// [16c, 16c+16), each compared with its successor, so it reads up to
// pixel 16c+16: a pixel that differs from the next makes that next pixel a
// run start. Chunks are counted in order until one whose sixteen pairs are
// all equal, which is not counted, or until the count passes limit. It
// returns the count and last, the offset of the last start counted; with
// pixel 0 taken as a start, [0, last) holds exactly starts of them.
func runStartsGo(pix []uint8, chunks, limit int) (starts, last int) {
	for j := 0; j < 16*chunks; j += 16 {
		var diff uint16 // bit k: pixel j+k+1 starts a run
		for k := 0; k < 16; k++ {
			p := 2 * (j + k)
			if pix[p] != pix[p+2] || pix[p+1] != pix[p+3] {
				diff |= 1 << k
			}
		}
		if diff == 0 {
			break
		}
		starts += bits.OnesCount16(diff)
		last = j + bits.Len16(diff)
		if starts > limit {
			break
		}
	}
	return starts, last
}

// allAlphasNonZero reports whether every pixel of the interleaved block has
// a non-zero alpha byte — the payload validity invariant of TRLE streams.
// pix must have even length. With useAVX2 the 32-byte-aligned prefix goes to
// alphasNonZeroAVX2 and the rest to alphasNonZeroGo.
func allAlphasNonZero(pix []uint8) bool {
	n := 0
	if useAVX2 {
		n = len(pix) &^ 31
		if !alphasNonZeroAVX2(pix[:n]) {
			return false
		}
	}
	return alphasNonZeroGo(pix[n:])
}

// alphasNonZeroGo is allAlphasNonZero's portable definition, four pixels a
// word by the carry trick.
func alphasNonZeroGo(pix []uint8) bool {
	i := 0
	for ; i+8 <= len(pix); i += 8 {
		a := (binary.LittleEndian.Uint64(pix[i:]) >> 8) & loBytes
		if (a+loBytes)&carryBits != carryBits {
			return false
		}
	}
	for ; i < len(pix); i += 2 {
		if pix[i+1] == 0 {
			return false
		}
	}
	return true
}

// broadcastPixel replicates one (value, alpha) pixel across a 64-bit word.
func broadcastPixel(v, a uint8) uint64 {
	p := uint64(v) | uint64(a)<<8
	p |= p << 16
	return p | p<<32
}

// fillPixelRun stores the (v, a) pixel into every pixel of dst, eight bytes
// at a time. dst must have even length.
func fillPixelRun(dst []uint8, v, a uint8) {
	pat := broadcastPixel(v, a)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], pat)
	}
	for ; i < len(dst); i += 2 {
		dst[i], dst[i+1] = v, a
	}
}

// byteRunLen returns the length of the run of bytes identical to b[i],
// scanning at most to index limit — the analogue of pixelRunLen for
// MaskTRLE's template bytes, eight elements per load.
func byteRunLen(b []uint8, i, limit int) int {
	pat := uint64(b[i]) * 0x0101010101010101
	j := i
	for j+8 <= limit {
		x := binary.LittleEndian.Uint64(b[j:]) ^ pat
		if x != 0 {
			j += bits.TrailingZeros64(x) / 8
			if j > limit {
				j = limit
			}
			return j - i
		}
		j += 8
	}
	for j < limit && b[j] == b[i] {
		j++
	}
	return j - i
}
