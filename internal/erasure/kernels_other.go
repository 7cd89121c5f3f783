//go:build !amd64

package erasure

// Without the amd64 kernels every row operation is the mulTable loop.

func haveAVX2() bool { return false }

func mulAndAddBulk(dst, src []byte, c byte) int { return 0 }

func mulSetBulk(dst, src []byte, c byte) int { return 0 }
