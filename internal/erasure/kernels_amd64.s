//go:build amd64

#include "textflag.h"

// Split-nibble GF(2^8) kernels, 32 bytes per iteration. Each byte x of src
// is multiplied by the coefficient c as lo[x&15] ^ hi[x>>4], where tbl
// holds lo = c·x and hi = c·(x<<4) for x in 0..15 (mulNib); VPSHUFB looks
// up 32 nibbles of each half at once. The Go callers pass whole 32-byte
// blocks only and do the tail with the mulTable loop.

// NIB_SETUP loads the arguments of func(tbl *[32]byte, dst, src []byte):
// DI = dst, SI = src, CX = whole blocks, Y0/Y1 = lo/hi tables in both
// lanes, Y2 = 0x0f in every byte. It jumps to done when there is no block.
#define NIB_SETUP(done) \
	MOVQ tbl+0(FP), AX; \
	MOVQ dst_base+8(FP), DI; \
	MOVQ src_base+32(FP), SI; \
	MOVQ src_len+40(FP), CX; \
	SHRQ $5, CX; \
	JZ   done; \
	VBROADCASTI128 (AX), Y0; \
	VBROADCASTI128 16(AX), Y1; \
	MOVQ $15, DX; \
	MOVQ DX, X2; \
	VPBROADCASTB X2, Y2

// NIB_MUL leaves c·src[0:32] in Y3 and clobbers Y4.
#define NIB_MUL \
	VMOVDQU (SI), Y3; \
	VPSRLQ  $4, Y3, Y4; \
	VPAND   Y2, Y3, Y3; \
	VPAND   Y2, Y4, Y4; \
	VPSHUFB Y3, Y0, Y3; \
	VPSHUFB Y4, Y1, Y4; \
	VPXOR   Y3, Y4, Y3

// NIB_NEXT stores Y3 to dst[0:32], advances both rows a block and loops.
#define NIB_NEXT(loop) \
	VMOVDQU Y3, (DI); \
	ADDQ    $32, SI; \
	ADDQ    $32, DI; \
	DECQ    CX; \
	JNZ     loop; \
	VZEROUPPER

// func mulAndAddAVX2(tbl *[32]byte, dst, src []byte)
TEXT ·mulAndAddAVX2(SB), NOSPLIT, $0-56
	NIB_SETUP(addDone)

addLoop:
	NIB_MUL
	VPXOR (DI), Y3, Y3
	NIB_NEXT(addLoop)

addDone:
	RET

// func mulSetAVX2(tbl *[32]byte, dst, src []byte)
TEXT ·mulSetAVX2(SB), NOSPLIT, $0-56
	NIB_SETUP(setDone)

setLoop:
	NIB_MUL
	NIB_NEXT(setLoop)

setDone:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
