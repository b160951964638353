#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func scatterTapsAVX(pot, w []float64, taps []convTap, s float64, n int)
//
// For each tap (j, w int32): pot[j+k] += s*w[w+k] for k < n. The
// product takes w as its first operand and the sum takes the product,
// as the compiled Go twin's MULSD and ADDSD do, so even the payload of
// a NaN that meets another NaN agrees.
TEXT ·scatterTapsAVX(SB), NOSPLIT, $0-88
	MOVQ         pot_base+0(FP), DI
	MOVQ         w_base+24(FP), SI
	MOVQ         taps_base+48(FP), R8
	MOVQ         taps_len+56(FP), R9
	VBROADCASTSD s+72(FP), Y0
	MOVQ         n+80(FP), CX
	MOVQ         CX, DX
	ANDQ         $-4, DX              // DX = lanes the vector loop covers
	TESTQ        R9, R9
	JZ           done

tap:
	MOVLQSX 0(R8), AX
	MOVLQSX 4(R8), BX
	LEAQ    (DI)(AX*8), R10           // &pot[tap.j]
	LEAQ    (SI)(BX*8), R11           // &w[tap.w]
	XORQ    R12, R12
	TESTQ   DX, DX
	JZ      tail

vec:
	VMOVUPD (R11)(R12*8), Y1
	VMULPD  Y0, Y1, Y1                // Y1 = w[k:k+4] * s
	VADDPD  (R10)(R12*8), Y1, Y1      // Y1 += pot[k:k+4]
	VMOVUPD Y1, (R10)(R12*8)
	ADDQ    $4, R12
	CMPQ    R12, DX
	JLT     vec

tail:
	CMPQ   R12, CX
	JGE    next
	VMOVSD (R11)(R12*8), X1
	VMULSD X0, X1, X1
	VADDSD (R10)(R12*8), X1, X1
	VMOVSD X1, (R10)(R12*8)
	INCQ   R12
	JMP    tail

next:
	ADDQ $8, R8
	DECQ R9
	JNZ  tap

done:
	VZEROUPPER
	RET

// func indexGEAVX(pot []float64, theta float64) int
//
// GE_OQ (predicate 0x1d) is false when either side is NaN, as Go's
// u >= theta is.
TEXT ·indexGEAVX(SB), NOSPLIT, $0-40
	MOVQ         pot_base+0(FP), SI
	MOVQ         pot_len+8(FP), CX
	VBROADCASTSD theta+24(FP), Y0
	XORQ         AX, AX
	LEAQ         -8(CX), DX           // last start of a whole 8-lane block

loop8:
	CMPQ      AX, DX
	JGT       tail
	VMOVUPD   (SI)(AX*8), Y1
	VMOVUPD   32(SI)(AX*8), Y2
	VCMPPD    $0x1d, Y0, Y1, Y1       // Y1 = pot[i:i+4] >= theta
	VCMPPD    $0x1d, Y0, Y2, Y2
	VMOVMSKPD Y1, BX
	VMOVMSKPD Y2, R8
	SHLQ      $4, R8
	ORQ       R8, BX
	JNZ       found
	ADDQ      $8, AX
	JMP       loop8

tail:
	CMPQ   AX, CX
	JGE    none
	VMOVSD (SI)(AX*8), X1
	VCMPSD $0x1d, X0, X1, X1
	MOVQ   X1, BX
	TESTQ  BX, BX
	JNZ    hit
	INCQ   AX
	JMP    tail

found:
	BSFQ BX, BX
	ADDQ BX, AX

hit:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

none:
	VZEROUPPER
	MOVQ CX, ret+32(FP)
	RET
