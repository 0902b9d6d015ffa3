#include "textflag.h"

// func axpyAVX2(y, x []float64, m float64)
// y[i] -= m*x[i] for i < len(y); len(y) is a positive multiple of 4 and
// len(x) >= len(y). Each product is rounded (VMULPD) before it is
// subtracted (VSUBPD), as the Go loop does.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD m+48(FP), Y0
	CMPQ         CX, $16
	JLT          quads

loop16:
	VMULPD  0(SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VMOVUPD 0(DI), Y5
	VMOVUPD 32(DI), Y6
	VMOVUPD 64(DI), Y7
	VMOVUPD 96(DI), Y8
	VSUBPD  Y1, Y5, Y5
	VSUBPD  Y2, Y6, Y6
	VSUBPD  Y3, Y7, Y7
	VSUBPD  Y4, Y8, Y8
	VMOVUPD Y5, 0(DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y7, 64(DI)
	VMOVUPD Y8, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     loop16

quads:
	TESTQ CX, CX
	JZ    done

loop4:
	VMULPD  (SI), Y0, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     loop4

done:
	VZEROUPPER
	RET
