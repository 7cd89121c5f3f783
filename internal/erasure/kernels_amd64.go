//go:build amd64

package erasure

// The AVX2 kernels in kernels_amd64.s. Each processes len(src)/32 whole
// blocks and leaves the tail to its caller; dst must be at least as long.

//go:noescape
func mulAndAddAVX2(tbl *[32]byte, dst, src []byte)

//go:noescape
func mulSetAVX2(tbl *[32]byte, dst, src []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE, and XCR0's SSE and AVX
// state bits).
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// mulAndAddBulk runs the AVX2 multiply-add over src's whole 32-byte blocks
// when simd is on, and returns how many bytes it did. len(dst) ≥ len(src).
//
//predis:hotpath
func mulAndAddBulk(dst, src []byte, c byte) int {
	n := len(src) &^ 31
	if !simd || n == 0 {
		return 0
	}
	mulAndAddAVX2(&mulNib[c], dst[:n], src[:n])
	return n
}

// mulSetBulk is mulAndAddBulk for dst = c·src.
//
//predis:hotpath
func mulSetBulk(dst, src []byte, c byte) int {
	n := len(src) &^ 31
	if !simd || n == 0 {
		return 0
	}
	mulSetAVX2(&mulNib[c], dst[:n], src[:n])
	return n
}
