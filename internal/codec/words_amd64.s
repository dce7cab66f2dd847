#include "textflag.h"

// nibbleShuf gathers, in each 128-bit lane (eight pixels, two groups), the
// alpha bytes of the lane's two groups into its low eight bytes, each group
// in reverse pixel order: bytes 7, 5, 3, 1, then 15, 13, 11, 9. The high
// eight bytes are zeroed (VPUNPCKLQDQ drops them anyway).
DATA nibbleShuf<>+0x00(SB)/8, $0x090B0D0F01030507
DATA nibbleShuf<>+0x08(SB)/8, $0x8080808080808080
DATA nibbleShuf<>+0x10(SB)/8, $0x090B0D0F01030507
DATA nibbleShuf<>+0x18(SB)/8, $0x8080808080808080
GLOBL nibbleShuf<>(SB), RODATA|NOPTR, $32

// func templateNibblesAVX2(bm, pix []uint8)
//
// 64 bytes (32 pixels, eight groups) per iteration; len(pix) is a multiple
// of 64 and bm holds len(pix)/16 bytes. Two VPSHUFBs leave, per lane, the
// reversed alphas of two groups in the low quadword; VPUNPCKLQDQ pairs the
// lanes of the two loads (groups 0-1, 4-5 | 2-3, 6-7) and VPERMQ $0xD8
// restores group order. A zero alpha compares equal to zero, so the
// inverted VPMOVMSKB has bit 4k+3-j set exactly when pixel j of group k is
// non-blank: nibble k is group k's template, first pixel in bit 3. Y15 is
// left alone.
TEXT ·templateNibblesAVX2(SB), NOSPLIT, $0-48
	MOVQ bm_base+0(FP), DI
	MOVQ pix_base+24(FP), SI
	MOVQ pix_len+32(FP), CX
	SHRQ $6, CX
	JZ   done

	VMOVDQU nibbleShuf<>(SB), Y2
	VPXOR   Y3, Y3, Y3

loop:
	VMOVDQU     (SI), Y0
	VMOVDQU     32(SI), Y1
	VPSHUFB     Y2, Y0, Y0
	VPSHUFB     Y2, Y1, Y1
	VPUNPCKLQDQ Y1, Y0, Y0
	VPERMQ      $0xD8, Y0, Y0
	VPCMPEQB    Y3, Y0, Y0
	VPMOVMSKB   Y0, AX
	NOTL        AX
	MOVL        AX, (DI)
	ADDQ        $64, SI
	ADDQ        $4, DI
	DECQ        CX
	JNZ         loop
	VZEROUPPER

done:
	RET

// func alphasNonZeroAVX2(pix []uint8) bool
//
// 32 bytes (sixteen pixels) per iteration; len(pix) is a multiple of 32.
// VPCMPEQB against zero marks the zero bytes, and one VPTEST against the
// alpha lanes (0xFF00 per word) tells whether any of them is an alpha.
TEXT ·alphasNonZeroAVX2(SB), NOSPLIT, $0-25
	MOVQ pix_base+0(FP), SI
	MOVQ pix_len+8(FP), CX
	SHRQ $5, CX
	JZ   yes

	VPXOR    Y1, Y1, Y1
	VPCMPEQD Y2, Y2, Y2
	VPSLLW   $8, Y2, Y2

loop:
	VPCMPEQB (SI), Y1, Y0
	VPTEST   Y2, Y0
	JNE      no
	ADDQ     $32, SI
	DECQ     CX
	JNZ      loop
	VZEROUPPER

yes:
	MOVB $1, ret+24(FP)
	RET

no:
	VZEROUPPER
	MOVB $0, ret+24(FP)
	RET

// func runStartsAVX2(pix []uint8, chunks, limit int) (starts, last int)
//
// Sixteen pixels per iteration, reading pixels [j, j+17) of chunk j/16;
// limit is at least 0. The loads at byte offsets 0 and 2 pair each pixel
// with its successor, VPCMPEQW marks the equal pairs, and the inverted
// VPMOVMSKB has bits 2k and 2k+1 set exactly when pixel j+k differs from
// pixel j+k+1, a run start at j+k+1: POPCNT halved counts them, and BSR
// halved plus one is the offset of the last. An all-equal chunk (a zero
// mask) ends the loop before it is counted; so does a count past limit,
// after its chunk.
TEXT ·runStartsAVX2(SB), NOSPLIT, $0-56
	MOVQ pix_base+0(FP), SI
	MOVQ chunks+24(FP), CX
	MOVQ limit+32(FP), R8
	XORQ AX, AX
	XORQ DX, DX
	XORQ R9, R9
	TESTQ CX, CX
	JZ   done

loop:
	VMOVDQU   (SI), Y0
	VMOVDQU   2(SI), Y1
	VPCMPEQW  Y1, Y0, Y0
	VPMOVMSKB Y0, BX
	NOTL      BX
	TESTL     BX, BX
	JZ        end
	POPCNTL   BX, R10
	SHRL      $1, R10
	ADDQ      R10, AX
	BSRL      BX, R10
	SHRL      $1, R10
	LEAQ      1(R9)(R10*1), DX
	CMPQ      AX, R8
	JA        end
	ADDQ      $32, SI
	ADDQ      $16, R9
	DECQ      CX
	JNZ       loop

end:
	VZEROUPPER

done:
	MOVQ AX, starts+40(FP)
	MOVQ DX, last+48(FP)
	RET
