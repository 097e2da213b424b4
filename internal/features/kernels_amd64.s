//go:build !purego

#include "textflag.h"

// The 4-row sum primitives of the batch distance kernels. Each takes the
// query q and four lane rows r0..r3, all read from element 0 up to n
// (elements for the L1 and L2 sums, RGB points for the naive one), and
// stores the four row sums to s[0..3]; n = 0 stores four zeros.
//
// Lanes are rows: X0 holds the running sums of rows 0 and 1, X1 those of
// rows 2 and 3. Every step broadcasts q[i] into both lanes of a register
// and gathers r0[i], r1[i] (and r2[i], r3[i]) into the two lanes of
// another, so each lane runs its row's scalar loop — the same IEEE
// operations, in ascending i, from +0 — and each sum has the scalar
// loop's bits. X7 holds the sign-clearing mask math.Abs applies.

// func l1Sum4SSE2(q, r0, r1, r2, r3 *float64, n int, s *[4]float64)
//
// s[j] = Σ |q[i] - rj[i]|
TEXT ·l1Sum4SSE2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ s+48(FP), DI
	SHLQ $3, CX              // n in bytes
	XORPS X0, X0
	XORPS X1, X1
	PCMPEQL X7, X7
	PSRLQ $1, X7             // 0x7fff_ffff_ffff_ffff in both lanes
	XORQ AX, AX              // byte offset of element i
	TESTQ CX, CX
	JEQ   l1done

l1loop:
	MOVSD    (SI)(AX*1), X2
	UNPCKLPD X2, X2          // q[i], q[i]
	MOVSD    (R8)(AX*1), X3
	MOVHPD   (R9)(AX*1), X3  // r0[i], r1[i]
	MOVSD    (R10)(AX*1), X4
	MOVHPD   (R11)(AX*1), X4 // r2[i], r3[i]
	MOVAPD   X2, X5
	SUBPD    X3, X5          // q[i] - r[i]
	SUBPD    X4, X2
	ANDPD    X7, X5          // |·|
	ANDPD    X7, X2
	ADDPD    X5, X0          // sum += |·|
	ADDPD    X2, X1
	ADDQ     $8, AX
	CMPQ     AX, CX
	JLT      l1loop

l1done:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	RET

// func l2Sum4SSE2(q, r0, r1, r2, r3 *float64, n int, s *[4]float64)
//
// s[j] = Σ (q[i] - rj[i])²
TEXT ·l2Sum4SSE2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ s+48(FP), DI
	SHLQ $3, CX
	XORPS X0, X0
	XORPS X1, X1
	XORQ AX, AX
	TESTQ CX, CX
	JEQ   l2done

l2loop:
	MOVSD    (SI)(AX*1), X2
	UNPCKLPD X2, X2
	MOVSD    (R8)(AX*1), X3
	MOVHPD   (R9)(AX*1), X3
	MOVSD    (R10)(AX*1), X4
	MOVHPD   (R11)(AX*1), X4
	MOVAPD   X2, X5
	SUBPD    X3, X5          // d = q[i] - r[i]
	SUBPD    X4, X2
	MULPD    X5, X5          // d*d
	MULPD    X2, X2
	ADDPD    X5, X0          // sum += d*d
	ADDPD    X2, X1
	ADDQ     $8, AX
	CMPQ     AX, CX
	JLT      l2loop

l2done:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	RET

// func naiveSum4SSE2(q, r0, r1, r2, r3 *float64, n int, s *[4]float64)
//
// Over n RGB points p: d0, d1, d2 = q[3p+c] - rj[3p+c] and
// s[j] = Σ sqrt((d0*d0 + d1*d1) + d2*d2).
TEXT ·naiveSum4SSE2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ s+48(FP), DI
	MOVQ CX, DX
	SHLQ $4, CX
	SHLQ $3, DX
	ADDQ DX, CX              // n points in bytes: n*24
	XORPS X0, X0
	XORPS X1, X1
	XORQ AX, AX              // byte offset of point p
	TESTQ CX, CX
	JEQ   naivedone

naiveloop:
	// d0: X5 = rows 0,1; X2 = rows 2,3, squared.
	MOVSD    (SI)(AX*1), X2
	UNPCKLPD X2, X2
	MOVSD    (R8)(AX*1), X3
	MOVHPD   (R9)(AX*1), X3
	MOVSD    (R10)(AX*1), X4
	MOVHPD   (R11)(AX*1), X4
	MOVAPD   X2, X5
	SUBPD    X3, X5
	SUBPD    X4, X2
	MULPD    X5, X5
	MULPD    X2, X2

	// + d1*d1
	MOVSD    8(SI)(AX*1), X6
	UNPCKLPD X6, X6
	MOVSD    8(R8)(AX*1), X3
	MOVHPD   8(R9)(AX*1), X3
	MOVSD    8(R10)(AX*1), X4
	MOVHPD   8(R11)(AX*1), X4
	MOVAPD   X6, X8
	SUBPD    X3, X8
	SUBPD    X4, X6
	MULPD    X8, X8
	MULPD    X6, X6
	ADDPD    X8, X5
	ADDPD    X6, X2

	// + d2*d2
	MOVSD    16(SI)(AX*1), X6
	UNPCKLPD X6, X6
	MOVSD    16(R8)(AX*1), X3
	MOVHPD   16(R9)(AX*1), X3
	MOVSD    16(R10)(AX*1), X4
	MOVHPD   16(R11)(AX*1), X4
	MOVAPD   X6, X8
	SUBPD    X3, X8
	SUBPD    X4, X6
	MULPD    X8, X8
	MULPD    X6, X6
	ADDPD    X8, X5
	ADDPD    X6, X2

	SQRTPD   X5, X5          // per-point distance
	SQRTPD   X2, X2
	ADDPD    X5, X0          // sum += distance
	ADDPD    X2, X1
	ADDQ     $24, AX
	CMPQ     AX, CX
	JLT      naiveloop

naivedone:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	RET
