#include "textflag.h"

// VPSHUFB index vectors, one per element size. The shuffle works
// within each 128-bit lane, so both lanes carry the same indices:
// byte i of the result is byte rev[i] of the source lane.
DATA rev8<>+0(SB)/8, $0x0001020304050607
DATA rev8<>+8(SB)/8, $0x08090a0b0c0d0e0f
DATA rev8<>+16(SB)/8, $0x0001020304050607
DATA rev8<>+24(SB)/8, $0x08090a0b0c0d0e0f
GLOBL rev8<>(SB), RODATA|NOPTR, $32

DATA rev4<>+0(SB)/8, $0x0405060700010203
DATA rev4<>+8(SB)/8, $0x0c0d0e0f08090a0b
DATA rev4<>+16(SB)/8, $0x0405060700010203
DATA rev4<>+24(SB)/8, $0x0c0d0e0f08090a0b
GLOBL rev4<>(SB), RODATA|NOPTR, $32

// func swabAVX2(dst, src []byte, size int)
// len(src) is a positive multiple of 32, len(dst) >= len(src); size 4
// selects the 4-byte reversal, anything else the 8-byte one (as the Go
// loop does).
TEXT ·swabAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VMOVDQU rev8<>(SB), Y0
	CMPQ size+48(FP), $4
	JNE  blocks
	VMOVDQU rev4<>(SB), Y0

blocks:
	CMPQ CX, $128
	JLT  singles

loop128:
	VMOVDQU 0(SI), Y1
	VMOVDQU 32(SI), Y2
	VMOVDQU 64(SI), Y3
	VMOVDQU 96(SI), Y4
	VPSHUFB Y0, Y1, Y1
	VPSHUFB Y0, Y2, Y2
	VPSHUFB Y0, Y3, Y3
	VPSHUFB Y0, Y4, Y4
	VMOVDQU Y1, 0(DI)
	VMOVDQU Y2, 32(DI)
	VMOVDQU Y3, 64(DI)
	VMOVDQU Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, CX
	CMPQ CX, $128
	JGE  loop128

singles:
	TESTQ CX, CX
	JZ    done

loop32:
	VMOVDQU (SI), Y1
	VPSHUFB Y0, Y1, Y1
	VMOVDQU Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  loop32

done:
	VZEROUPPER
	RET
