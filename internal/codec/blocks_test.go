package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
)

// ledgerBlocks cuts the frame ledger's inputs into the blocks its
// composition sends: the eight 512² disc partials of compose-sparse-trle
// and one 10 % blank noise layer (compose-tcp-noise-rle's input), at the
// span of every block the RT(8,4) schedule transfers, plus odd spans and
// spans shorter than one template group. Each block names the layer it is
// cut from and the layer the resident is cut from.
func ledgerBlocks(t *testing.T) (layers [][]uint8, blocks []ledgerBlock) {
	const edge, p, n = 512, 8, 4
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < p; r++ {
		layers = append(layers, raster.PartialImage(rng, edge, edge, r, p).Pix)
	}
	noise := len(layers)
	layers = append(layers, raster.RandomImage(rng, edge, edge, 0.10).Pix)
	// Non-canonical blanks: TRLE encodes them as blank, and a resident
	// front may hold them.
	for _, pix := range layers {
		for i := 0; i < len(pix); i += raster.BytesPerPixel {
			if pix[i+1] == 0 && rng.Intn(8) == 0 {
				pix[i] = uint8(1 + rng.Intn(255))
			}
		}
	}

	s, err := schedule.RT(p, n)
	if err != nil {
		t.Fatal(err)
	}
	npix := edge * edge
	tiles := s.TileSpans(npix)
	for si, st := range s.Steps {
		for _, tr := range st.Transfers {
			blocks = append(blocks, ledgerBlock{fmt.Sprintf("step%d/%v", si+1, tr.Block),
				tr.Block.Span(tiles), tr.From, tr.To})
		}
	}
	// Long non-blank runs that fill the decoder's scratch many times over.
	for _, tile := range tiles {
		blocks = append(blocks, ledgerBlock{"noise/" + tile.String(), tile, noise, 0})
	}
	// Odd spans, and spans shorter than one group, starting at every offset
	// into a group around the first disc row of rank 3 and inside the noise.
	discRow := 145 * edge
	for _, k := range []int{1, 2, 3, 5, 6, 7, 9, 255, 513, 1023, 4097} {
		for off := 0; off < templatePixels; off++ {
			for _, lo := range []int{discRow + 210 + off, discRow + 3*edge + 150 + off} {
				sp := raster.Span{Lo: lo, Hi: lo + k}
				blocks = append(blocks, ledgerBlock{"odd/" + sp.String(), sp, 3, 4})
			}
			sp := raster.Span{Lo: 1000 + off, Hi: 1000 + off + k}
			blocks = append(blocks, ledgerBlock{"odd-noise/" + sp.String(), sp, noise, 4})
		}
	}
	return layers, blocks
}

type ledgerBlock struct {
	name     string
	span     raster.Span
	from, to int
}

// TestDecodeOverLedgerBlocks runs TRLE's fused decoder on the blocks the
// frame ledger composites (ledgerBlocks) and compares it, in both
// orientations, with DecodeInto followed by OverU8. The block sizes reach
// what the small classes of the differential matrix do not: spans that fill
// the decoder's scratch and flush it mid-run, merged blank codes, runs of
// mixed groups longer than the scratch, and trailing partial groups.
func TestDecodeOverLedgerBlocks(t *testing.T) {
	layers, blocks := ledgerBlocks(t)
	for _, b := range blocks {
		lo, hi := b.span.Lo*raster.BytesPerPixel, b.span.Hi*raster.BytesPerPixel
		npix := b.span.Len()
		enc := TRLE{}.EncodeAppend(nil, layers[b.from][lo:hi])
		if err := (TRLE{}).CheckStream(enc, npix); err != nil {
			t.Fatalf("%s: CheckStream: %v", b.name, err)
		}
		decoded, err := TRLE{}.DecodeInto(nil, enc, npix)
		if err != nil {
			t.Fatalf("%s: DecodeInto: %v", b.name, err)
		}
		for _, encFront := range []bool{true, false} {
			resident := layers[b.to][lo:hi]
			want := append([]uint8(nil), resident...)
			if encFront {
				compose.OverU8(want, decoded, want)
			} else {
				compose.OverU8(want, want, decoded)
			}
			got := append([]uint8(nil), resident...)
			n, err := TRLE{}.DecodeOver(got, enc, npix, encFront)
			if err != nil || n != npix {
				t.Fatalf("%s encFront=%v: DecodeOver = %d, %v; want %d, nil", b.name, encFront, n, err, npix)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("%s encFront=%v: pixel %d is (%d,%d), want (%d,%d)", b.name, encFront,
					i/2, got[i&^1], got[i|1], want[i&^1], want[i|1])
			}
		}
	}
}

// TestTRLEEncodeLedgerBlocks: TRLE's encoder on every block the frame
// ledger sends (ledgerBlocks), under both dispatches, through EncodeAppend
// and through EncodeCapped at the raw-length budget, against the scalar
// reference: the bytes must be the reference's, or the raw pixels where the
// reference is not strictly shorter. The destination is reused from block
// to block, as the wire path reuses its pooled buffers.
func TestTRLEEncodeLedgerBlocks(t *testing.T) {
	layers, blocks := ledgerBlocks(t)
	forEachDispatch(t, func(t *testing.T) {
		var dst []uint8
		for _, b := range blocks {
			pix := layers[b.from][b.span.Lo*raster.BytesPerPixel : b.span.Hi*raster.BytesPerPixel]
			want := refTRLEEncodeAppend(nil, pix)
			dst = TRLE{}.EncodeAppend(dst[:0], pix)
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: EncodeAppend differs from the reference (%d bytes, want %d)", b.name, len(dst), len(want))
			}
			if len(want) >= len(pix) {
				want = pix
			}
			dst = EncodeCapped(dst[:0], pix, TRLE{})
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: EncodeCapped differs from the reference (%d bytes, want %d)", b.name, len(dst), len(want))
			}
		}
	})
}

// TestRLEEncodeLedgerBlocks is TestTRLEEncodeLedgerBlocks for RLE: every
// ledger block, under both dispatches, through EncodeAppend and through
// EncodeCapped at the raw-length budget, against refRLEEncodeAppend. The
// noise blocks are compose-tcp-noise-rle's, which all escape to raw.
func TestRLEEncodeLedgerBlocks(t *testing.T) {
	layers, blocks := ledgerBlocks(t)
	forEachDispatch(t, func(t *testing.T) {
		var dst []uint8
		for _, b := range blocks {
			pix := layers[b.from][b.span.Lo*raster.BytesPerPixel : b.span.Hi*raster.BytesPerPixel]
			want := refRLEEncodeAppend(nil, pix)
			dst = RLE{}.EncodeAppend(dst[:0], pix)
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: EncodeAppend differs from the reference (%d bytes, want %d)", b.name, len(dst), len(want))
			}
			if len(want) >= len(pix) {
				want = pix
			}
			dst = EncodeCapped(dst[:0], pix, RLE{})
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s: EncodeCapped differs from the reference (%d bytes, want %d)", b.name, len(dst), len(want))
			}
		}
	})
}

// TestPixelRunLenFindsEveryMismatch: pixelRunLen against a pixel-at-a-time
// scan, on runs of every length up to 70 ended by a pixel that differs from
// the run's in one bit of its value or alpha, or not at all, so a word test
// that lets a near miss through fails.
func TestPixelRunLenFindsEveryMismatch(t *testing.T) {
	for _, px := range [][2]uint8{{0, 0}, {42, 255}, {0xAA, 0x55}} {
		for l := 1; l <= 70; l++ {
			for bit := -1; bit < 16; bit++ {
				pix := bytes.Repeat(px[:], l+9)
				if bit >= 0 {
					pix[2*l+bit/8] ^= 1 << (bit % 8)
				}
				want := 0
				for want < l+9 && pix[2*want] == px[0] && pix[2*want+1] == px[1] {
					want++
				}
				for _, limit := range []int{l, l + 1, l + 9} {
					if got := pixelRunLen(pix, 0, limit); got != min(want, limit) {
						t.Fatalf("pixel (%d,%d), mismatch at %d bit %d, limit %d: run %d, want %d",
							px[0], px[1], l, bit, limit, got, min(want, limit))
					}
				}
			}
		}
	}
}
