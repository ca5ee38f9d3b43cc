#include "go_asm.h"
#include "textflag.h"

// func cosAffineAVX2(dst, a, b []float64, i int, t float64) int
//
// One block of four lanes per iteration, each lane math.cos (math/sin.go)
// of x = a[k]*t + b[k]. Each step names the math.cos expression it
// evaluates; operands of + and * are swapped only where the IEEE result
// cannot change. The branch on the octant and the final negation are a
// blend and a sign-bit XOR. A block is stored only when every lane takes
// math.cos's Cody-Waite path: finite, with |x| < 2^29.
TEXT ·cosAffineAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ i+72(FP), AX
	VBROADCASTSD t+80(FP), Y15
	LEAQ ·cosK(SB), R8
	VMOVUPD cosConsts_one(R8), Y14

loop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  done

	// x := a[k]*t + b[k], the product rounded on its own (no FMA).
	VMULPD (SI)(AX*8), Y15, Y0
	VADDPD (DX)(AX*8), Y0, Y0

	// x = Abs(x); fall back unless |x| < reduceThreshold in every lane
	// (LT_OQ is false for NaN, and |±Inf| is not below 2^29).
	VANDPD    cosConsts_absMask(R8), Y0, Y0
	VCMPPD    $0x11, cosConsts_reduceMax(R8), Y0, Y1 // LT_OQ
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       done

	// j := uint64(x * (4 / Pi)): truncation to int32 is exact, since
	// x * (4/Pi) < 2^31 here.
	VMULPD      cosConsts_m4pi(R8), Y0, Y1
	VCVTTPD2DQY Y1, X1

	// if j&1 == 1 { j++; y++ }; y := float64(j) is exact either way.
	VPAND     cosConsts_oddBump(R8), X1, X2
	VPADDD    X2, X1, X1
	VCVTDQ2PD X1, Y2
	VPMOVZXDQ X1, Y3

	// z := ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD cosConsts_pi4a(R8), Y2, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD cosConsts_pi4b(R8), Y2, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD cosConsts_pi4c(R8), Y2, Y4
	VSUBPD Y4, Y0, Y0

	// zz := z * z
	VMULPD Y0, Y0, Y1

	// z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	VMULPD cosConsts_s0(R8), Y1, Y4
	VADDPD cosConsts_s1(R8), Y4, Y4
	VMULPD Y1, Y4, Y4
	VADDPD cosConsts_s2(R8), Y4, Y4
	VMULPD Y1, Y4, Y4
	VADDPD cosConsts_s3(R8), Y4, Y4
	VMULPD Y1, Y4, Y4
	VADDPD cosConsts_s4(R8), Y4, Y4
	VMULPD Y1, Y4, Y4
	VADDPD cosConsts_s5(R8), Y4, Y4
	VMULPD Y1, Y0, Y5
	VMULPD Y4, Y5, Y4
	VADDPD Y4, Y0, Y4

	// 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	VMULPD cosConsts_c0(R8), Y1, Y5
	VADDPD cosConsts_c1(R8), Y5, Y5
	VMULPD Y1, Y5, Y5
	VADDPD cosConsts_c2(R8), Y5, Y5
	VMULPD Y1, Y5, Y5
	VADDPD cosConsts_c3(R8), Y5, Y5
	VMULPD Y1, Y5, Y5
	VADDPD cosConsts_c4(R8), Y5, Y5
	VMULPD Y1, Y5, Y5
	VADDPD cosConsts_c5(R8), Y5, Y5
	VMULPD Y1, Y1, Y6
	VMULPD Y5, Y6, Y5
	VMULPD cosConsts_half(R8), Y1, Y6
	VSUBPD Y6, Y14, Y6
	VADDPD Y5, Y6, Y5

	// After j &= 7 and the two folds, math.cos takes the sine polynomial
	// when bit 1 of j is set (octants 2 and 6) and negates when bit 2 of
	// j+2 is set (octants 2 and 4).
	VPAND     cosConsts_two(R8), Y3, Y6
	VPCMPEQQ  cosConsts_two(R8), Y6, Y6
	VBLENDVPD Y6, Y4, Y5, Y5
	VPADDQ    cosConsts_two(R8), Y3, Y3
	VPSRLQ    $2, Y3, Y3
	VPSLLQ    $63, Y3, Y3
	VXORPD    Y3, Y5, Y5

	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET
