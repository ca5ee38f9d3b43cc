#include "go_asm.h"
#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET


// func gainRowAVX2(gain, shadow, d2 []float64, i int, refDB, halfExp, invRefM2, minD2 float64) int
//
// One block of four cells per iteration. Each step names the gainRowGo
// expression it evaluates; operands of + and * are swapped only where the
// IEEE result cannot change. Y11 collects the lanes gainRowGo would send
// down a fallback branch; the block is stored only when it is empty.
TEXT ·gainRowAVX2(SB), NOSPLIT, $0-120
	MOVQ gain_base+0(FP), DI
	MOVQ gain_len+8(FP), CX
	MOVQ shadow_base+24(FP), SI
	MOVQ d2_base+48(FP), DX
	MOVQ i+72(FP), AX
	VBROADCASTSD refDB+80(FP), Y12
	VBROADCASTSD halfExp+88(FP), Y13
	VBROADCASTSD invRefM2+96(FP), Y14
	VBROADCASTSD minD2+104(FP), Y15
	LEAQ ·gainRowK(SB), R8

loop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  done

	// v := d2[k]; if v < minD2 { v = minD2 }: VMAXPD returns its second
	// source (v) unless the first (minD2) is greater, NaNs included.
	VMOVUPD (DX)(AX*8), Y0
	VMAXPD  Y0, Y15, Y0
	VMULPD  Y14, Y0, Y0 // v *= invRefM2

	// expField := bits>>52 & 0x7FF; fallback when 0 or 0x7FF.
	VPSRLQ   $52, Y0, Y1
	VPAND    gainRowConsts_expField(R8), Y1, Y1
	VPXOR    Y2, Y2, Y2
	VPCMPEQQ Y2, Y1, Y2
	VPCMPEQQ gainRowConsts_expField(R8), Y1, Y11
	VPOR     Y2, Y11, Y11

	// float64(expField - 1022), exactly: (2^52 + expField) - (2^52 + 1022).
	VPOR   gainRowConsts_magic(R8), Y1, Y1
	VSUBPD gainRowConsts_magicE0(R8), Y1, Y1

	// m := frombits(bits&^(0x7FF<<52) | 1022<<52); 1022<<52 is 0.5's bits.
	VANDPD gainRowConsts_expClear(R8), Y0, Y2
	VORPD  gainRowConsts_half(R8), Y2, Y2

	// if m < sqrt2/2 { m *= 2; e-- }
	VCMPPD    $0x11, gainRowConsts_sqrt2Half(R8), Y2, Y3 // LT_OQ
	VADDPD    Y2, Y2, Y4
	VBLENDVPD Y3, Y4, Y2, Y2
	VANDPD    gainRowConsts_one(R8), Y3, Y4
	VSUBPD    Y4, Y1, Y1

	// s := (m - 1) / (m + 1); w := s*s; w2 := w*w
	VSUBPD gainRowConsts_one(R8), Y2, Y4
	VADDPD gainRowConsts_one(R8), Y2, Y5
	VDIVPD Y5, Y4, Y4
	VMULPD Y4, Y4, Y5
	VMULPD Y5, Y5, Y6

	// series := (1 + w*(1.0/3)) + w2*(1.0/5+w*(1.0/7)) +
	//	(w2*w2)*((1.0/9+w*(1.0/11))+w2*(1.0/13))
	VMULPD gainRowConsts_l3(R8), Y5, Y7
	VADDPD gainRowConsts_one(R8), Y7, Y7
	VMULPD gainRowConsts_l7(R8), Y5, Y8
	VADDPD gainRowConsts_l5(R8), Y8, Y8
	VMULPD Y8, Y6, Y8
	VADDPD Y8, Y7, Y7
	VMULPD gainRowConsts_l11(R8), Y5, Y8
	VADDPD gainRowConsts_l9(R8), Y8, Y8
	VMULPD gainRowConsts_l13(R8), Y6, Y9
	VADDPD Y9, Y8, Y8
	VMULPD Y6, Y6, Y9
	VMULPD Y8, Y9, Y8
	VADDPD Y8, Y7, Y7

	// log2m := (2 * invLn2) * s * series
	VMULPD gainRowConsts_twoInvLn2(R8), Y4, Y4
	VMULPD Y7, Y4, Y4

	// y = (shadow[k]-refDB)*c - halfExp*(float64(e)+log2m)
	VADDPD  Y4, Y1, Y1
	VMULPD  Y1, Y13, Y1
	VMOVUPD (SI)(AX*8), Y4
	VSUBPD  Y12, Y4, Y4
	VMULPD  gainRowConsts_dbToLog2(R8), Y4, Y4
	VSUBPD  Y1, Y4, Y4

	// Fallback when y != y || y > 1020 || y < -1020, that is when
	// !(|y| <= 1020): NLE_UQ is true for NaN.
	VANDPD   gainRowConsts_absMask(R8), Y4, Y5
	VCMPPD   $0x16, gainRowConsts_yMax(R8), Y5, Y5 // NLE_UQ
	VORPD    Y5, Y11, Y11
	VMOVMSKPD Y11, BX
	TESTQ    BX, BX
	JNZ      done

	// shifted := y + rndShift; n := shifted - rndShift; t := (y - n) * ln2
	VADDPD gainRowConsts_rndShift(R8), Y4, Y5
	VSUBPD gainRowConsts_rndShift(R8), Y5, Y6
	VSUBPD Y6, Y4, Y6
	VMULPD gainRowConsts_ln2(R8), Y6, Y6

	// frombits(uint64(int64(n)+1023) << 52): the low mantissa bits of
	// shifted hold n, and the shift drops everything above them.
	VPADDQ gainRowConsts_expBias(R8), Y5, Y5
	VPSLLQ $52, Y5, Y5

	// t2 := t*t; t4 := t2*t2
	VMULPD Y6, Y6, Y7
	VMULPD Y7, Y7, Y8

	// p := (1 + t) + t2*(0.5+t*(1.0/6)) +
	//	t4*((1.0/24+t*(1.0/120))+t2*(1.0/720+t*(1.0/5040))) +
	//	(t4*t4)*((1.0/40320+t*(1.0/362880))+t2*(1.0/3628800))
	VADDPD gainRowConsts_one(R8), Y6, Y9
	VMULPD gainRowConsts_e6(R8), Y6, Y10
	VADDPD gainRowConsts_half(R8), Y10, Y10
	VMULPD Y10, Y7, Y10
	VADDPD Y10, Y9, Y9
	VMULPD gainRowConsts_e120(R8), Y6, Y10
	VADDPD gainRowConsts_e24(R8), Y10, Y10
	VMULPD gainRowConsts_e5040(R8), Y6, Y3
	VADDPD gainRowConsts_e720(R8), Y3, Y3
	VMULPD Y3, Y7, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y10, Y8, Y10
	VADDPD Y10, Y9, Y9
	VMULPD gainRowConsts_e362880(R8), Y6, Y10
	VADDPD gainRowConsts_e40320(R8), Y10, Y10
	VMULPD gainRowConsts_e3628800(R8), Y7, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y8, Y8, Y3
	VMULPD Y10, Y3, Y10
	VADDPD Y10, Y9, Y9

	// gain[k] = p * 2^n
	VMULPD  Y5, Y9, Y9
	VMOVUPD Y9, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+112(FP)
	RET
