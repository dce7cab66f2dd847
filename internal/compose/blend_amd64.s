#include "textflag.h"

// BLEND8 composites the eight front pixels widened into Y0 over the eight
// back pixels widened into Y1 (one pixel per dword: v | a<<8) and leaves the
// eight result pixels packed in X0. It clobbers Y2–Y7 and Y13; the constants
// are the ones blendWords sets up. The steps, in order: fa, fv, ba, bv and
// the fa == 0 lanes; inv = 255 - fa and inv*ba (below 2^16 with zero high
// words, so the word multiply is exact); fa*255; ca and ⌊ca/2⌋; max(ca, 1),
// fv*fa*255 and bv*inv*ba in float32; vo = (cv + ⌊ca/2⌋) / max(ca, 1),
// truncated; ao = ((ca+128) + ((ca+127)>>8)) >> 8; vo | ao<<8; the back
// pixel verbatim where fa == 0; and the pack of the dwords to words, whose
// in-lane order VPERMQ undoes.
#define BLEND8 \
	VPSRLD     $8, Y0, Y2; \
	VPAND      Y9, Y0, Y0; \
	VPSRLD     $8, Y1, Y3; \
	VPAND      Y9, Y1, Y13; \
	VPCMPEQD   Y8, Y2, Y7; \
	VPSUBD     Y2, Y9, Y4; \
	VPMULLW    Y3, Y4, Y4; \
	VPSLLD     $8, Y2, Y5; \
	VPSUBD     Y2, Y5, Y5; \
	VPADDD     Y4, Y5, Y6; \
	VPSRLD     $1, Y6, Y2; \
	VCVTDQ2PS  Y6, Y3; \
	VMAXPS     Y11, Y3, Y3; \
	VCVTDQ2PS  Y0, Y0; \
	VCVTDQ2PS  Y13, Y13; \
	VCVTDQ2PS  Y5, Y5; \
	VCVTDQ2PS  Y4, Y4; \
	VCVTDQ2PS  Y2, Y2; \
	VMULPS     Y5, Y0, Y0; \
	VMULPS     Y4, Y13, Y13; \
	VADDPS     Y13, Y0, Y0; \
	VADDPS     Y2, Y0, Y0; \
	VDIVPS     Y3, Y0, Y0; \
	VCVTTPS2DQ Y0, Y0; \
	VPADDD     Y12, Y6, Y6; \
	VPSRLD     $8, Y6, Y3; \
	VPSUBD     Y10, Y6, Y6; \
	VPADDD     Y3, Y6, Y6; \
	VPSRLD     $8, Y6, Y6; \
	VPSLLD     $8, Y6, Y6; \
	VPOR       Y6, Y0, Y0; \
	VPBLENDVB  Y7, Y1, Y0, Y0; \
	VPACKUSDW  Y0, Y0, Y0; \
	VPERMQ     $0x08, Y0, Y0

// func blendWords(dst, front, back []uint8)
//
// Eight pixels (16 bytes) per iteration, AVX2 only; the exactness argument
// is on the declaration in blend_amd64.go. Each front vector is classified
// first by one VPTEST of its alpha bytes: all blank stores the back vector,
// all opaque stores the front vector, anything else goes through BLEND8. A
// trailing 8-byte word is blended as four pixels. Registers across the
// loop: Y8 zero, Y9 0xFF per dword, Y10 all ones, Y11 1.0f, Y12 127 per
// dword, X14 0xFF00 per word (the alpha bytes). Y15 is left alone.
TEXT ·blendWords(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ front_base+24(FP), SI
	MOVQ back_base+48(FP), DX
	SHRQ $3, CX
	JZ   done

	VPXOR    Y8, Y8, Y8
	VPCMPEQD Y10, Y10, Y10
	VPSRLD   $24, Y10, Y9
	VPSRLD   $25, Y10, Y12
	VPSLLD   $25, Y10, Y11  // 0xFE000000
	VPSRLD   $2, Y11, Y11   // 0x3F800000 = 1.0f
	VPSLLW   $8, X10, X14

	MOVQ CX, BX
	SHRQ $1, BX
	JZ   tail

loop:
	VMOVDQU (SI), X0
	VPTEST  X14, X0
	JEQ     blank      // no alpha bit set
	JCS     opaque     // every alpha bit set
	VPMOVZXWD X0, Y0
	VPMOVZXWD (DX), Y1
	BLEND8
	VMOVDQU X0, (DI)

next:
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $16, DI
	DECQ BX
	JNZ  loop

tail:
	ANDQ $1, CX
	JZ   done
	VPMOVZXWD (SI), X0     // four pixels; the upper four lanes are zero
	VPMOVZXWD (DX), X1
	BLEND8
	VMOVQ X0, (DI)

done:
	VZEROUPPER
	RET

blank:
	VMOVDQU (DX), X1
	VMOVDQU X1, (DI)
	JMP     next

opaque:
	VMOVDQU X0, (DI)
	JMP     next

// func cpuHasAVX2() bool
//
// CPUID leaf 1 must report POPCNT (ECX bit 23), OSXSAVE (ECX bit 27) and
// AVX (ECX bit 28), XCR0 must have the XMM and YMM state enabled (bits 1
// and 2), and CPUID leaf 7 must report AVX2 (EBX bit 5). Every AVX2 CPU
// has POPCNT; codec's run-start kernel uses both.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18800000, CX
	CMPL  CX, $0x18800000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $5, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
