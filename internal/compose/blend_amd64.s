#include "textflag.h"

// func blendWords(dst, front, back []uint8)
//
// Four pixels per iteration, SSE2 only; the exactness argument is on the
// declaration in blend_amd64.go. Registers across the loop: X8 zero, X9
// 0xFF (255) per dword, X10 all ones, X11 1.0f, X12 127 per dword. X15 is
// left alone.
TEXT ·blendWords(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ front_base+24(FP), SI
	MOVQ back_base+48(FP), DX
	SHRQ $3, CX
	JZ   done

	PXOR    X8, X8
	PCMPEQL X10, X10
	MOVO    X10, X9
	PSRLL   $24, X9
	MOVO    X10, X12
	PSRLL   $25, X12
	MOVO    X10, X11
	PSLLL   $25, X11       // 0xFE000000
	PSRLL   $2, X11        // 0x3F800000 = 1.0f

loop:
	MOVQ      (SI), X0       // front: v0 a0 v1 a1 v2 a2 v3 a3
	MOVQ      (DX), X1       // back
	PUNPCKLWL X8, X0         // one pixel per dword: v | a<<8
	PUNPCKLWL X8, X1
	MOVO      X1, X13        // the back pixels verbatim, for fa == 0
	MOVO      X0, X2
	PSRLL     $8, X2         // fa
	PAND      X9, X0         // fv
	MOVO      X1, X3
	PSRLL     $8, X3         // ba
	PAND      X9, X1         // bv
	MOVO      X2, X7
	PCMPEQL   X8, X7         // all ones where fa == 0

	MOVO    X9, X4
	PSUBL   X2, X4           // inv = 255 - fa
	PMULLW  X3, X4           // inv*ba < 2^16, and the high words are 0*0
	MOVO    X2, X5
	PSLLL   $8, X5
	PSUBL   X2, X5           // fa*255
	MOVO    X5, X6
	PADDL   X4, X6           // ca
	MOVO    X6, X2
	PSRLL   $1, X2           // ca/2, floored
	CVTPL2PS X6, X3
	MAXPS   X11, X3          // max(ca, 1)

	CVTPL2PS X0, X0
	CVTPL2PS X1, X1
	CVTPL2PS X5, X5
	CVTPL2PS X4, X4
	CVTPL2PS X2, X2
	MULPS   X5, X0           // fv*fa*255
	MULPS   X4, X1           // bv*inv*ba
	ADDPS   X1, X0           // cv
	ADDPS   X2, X0           // cv + ca/2
	DIVPS   X3, X0
	CVTTPS2PL X0, X0         // vo = (cv + ca/2) / ca

	PADDL X12, X6            // ca + 127
	MOVO  X6, X3
	PSRLL $8, X3
	PSUBL X10, X6            // ca + 128
	PADDL X3, X6
	PSRLL $8, X6             // ao = (ca + 127) / 255
	PSLLL $8, X6
	POR   X6, X0             // vo | ao<<8

	PAND  X7, X13            // back where fa == 0
	PANDN X0, X7             // blend where fa != 0
	POR   X13, X7
	PSLLL $16, X7
	PSRAL $16, X7            // sign-extend, so the signed pack cannot saturate
	PACKSSLW X7, X7
	MOVQ  X7, (DI)

	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, DI
	DECQ CX
	JNZ  loop

done:
	RET
