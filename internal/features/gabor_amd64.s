//go:build !purego

#include "textflag.h"

// func gaborRowSSE2(re, im, pix *float64, stride, n int, kre2, kim2 *float64, side int)
//
// One output row of one complex filter: for j in [0, n), n even,
//
//	re[j] = Σ pix[ky*stride + j + kx] * kre[ky*side + kx]
//	im[j] = Σ pix[ky*stride + j + kx] * kim[ky*side + kx]
//
// taps in row-major order. kre2/kim2 hold every tap twice, so one MOVUPD
// loads it into both lanes. Adjacent outputs sit in the two lanes of one
// register: each lane runs the scalar loop's multiply-then-add sequence in
// the scalar loop's order, so every re[j], im[j] has the scalar loop's
// bits. Blocks of four outputs (X0 = re j, j+1; X1 = re j+2, j+3; X2, X3
// the same for im), then one block of two when n%4 == 2.
TEXT ·gaborRowSSE2(SB), NOSPLIT, $0-64
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ pix+16(FP), BX
	MOVQ stride+24(FP), DX
	SHLQ $3, DX              // row stride in bytes
	MOVQ n+32(FP), CX
	MOVQ kre2+40(FP), R9
	MOVQ kim2+48(FP), R10
	MOVQ side+56(FP), R11
	MOVQ R11, R12
	IMULQ R11, R12
	SHLQ $4, R12             // bytes of doubled taps: side*side*16

block4:
	CMPQ CX, $4
	JLT  block2
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ R13, R13            // byte offset of the current tap in kre2/kim2
	MOVQ BX, R8              // first pixel of the current kernel row

row4:
	MOVQ R8, AX
	MOVQ R11, R14            // taps left in this kernel row

tap4:
	MOVUPD (AX), X4
	MOVUPD 16(AX), X5
	MOVUPD (R9)(R13*1), X6
	MOVUPD (R10)(R13*1), X7
	MOVAPD X4, X8
	MULPD  X6, X8
	ADDPD  X8, X0
	MULPD  X5, X6
	ADDPD  X6, X1
	MULPD  X7, X4
	ADDPD  X4, X2
	MULPD  X7, X5
	ADDPD  X5, X3
	ADDQ   $8, AX
	ADDQ   $16, R13
	DECQ   R14
	JNZ    tap4
	ADDQ   DX, R8
	CMPQ   R13, R12
	JLT    row4
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, (SI)
	MOVUPD X3, 16(SI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	ADDQ   $32, BX
	SUBQ   $4, CX
	JMP    block4

block2:
	CMPQ CX, $2
	JLT  done
	XORPS X0, X0
	XORPS X2, X2
	XORQ R13, R13
	MOVQ BX, R8

row2:
	MOVQ R8, AX
	MOVQ R11, R14

tap2:
	MOVUPD (AX), X4
	MOVUPD (R9)(R13*1), X6
	MOVUPD (R10)(R13*1), X7
	MULPD  X4, X6
	ADDPD  X6, X0
	MULPD  X4, X7
	ADDPD  X7, X2
	ADDQ   $8, AX
	ADDQ   $16, R13
	DECQ   R14
	JNZ    tap2
	ADDQ   DX, R8
	CMPQ   R13, R12
	JLT    row2
	MOVUPD X0, (DI)
	MOVUPD X2, (SI)

done:
	RET
