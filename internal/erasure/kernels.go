package erasure

import "encoding/binary"

// Table-driven GF(2^8) kernels. The scalar mulRowAdd/mulRowSet in gf.go
// pay a log/exp lookup pair plus a zero check per byte; the kernels here
// index one precomputed 256-entry product row per coefficient, hoist the
// bounds check out of the inner loop, and XOR word-wide when the
// coefficient is 1. gf.go's scalar versions are kept as the reference
// implementation the cross-check tests compare against (and the cold
// matrix algebra still uses them). On AVX2 CPUs a row's whole 32-byte
// blocks go through kernels_amd64.s first (DESIGN.md §4, "GF(2⁸) row
// kernels").

// mulTable[c][x] = c·x in GF(2^8). 64 KiB, filled by initTables.
var mulTable [256][256]byte

// mulNib[c] holds the two 16-entry product tables of the AVX2 kernels:
// c·x for the low nibble x, then c·(x<<4) for the high nibble. c·b is
// lo[b&15] ^ hi[b>>4] since multiplication distributes over XOR.
var mulNib [256][32]byte

// simd selects the AVX2 kernels. initMulTable sets it once from the CPU
// (haveAVX2); tests clear it to run the table loop alone.
var simd bool

// initMulTable fills mulTable and mulNib; must run after the exp/log
// tables are ready (initTables calls it last).
func initMulTable() {
	for c := 1; c < 256; c++ {
		row := &mulTable[c]
		for x := 1; x < 256; x++ {
			row[x] = gfExp[int(gfLog[c])+int(gfLog[x])]
		}
		for x := 0; x < 16; x++ {
			mulNib[c][x] = row[x]
			mulNib[c][16+x] = row[x<<4]
		}
	}
	simd = haveAVX2()
}

// mulAndAdd computes dst[i] ^= c·src[i] over len(src) bytes.
//
//predis:hotpath
func mulAndAdd(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		xorBytes(dst, src)
		return
	}
	dst = dst[:len(src)] // hoist the bounds check
	n := mulAndAddBulk(dst, src, c)
	mt := &mulTable[c]
	dst, src = dst[n:], src[n:]
	for i, s := range src {
		dst[i] ^= mt[s]
	}
}

// mulSet computes dst[i] = c·src[i] over len(src) bytes.
//
//predis:hotpath
func mulSet(dst, src []byte, c byte) {
	switch c {
	case 0:
		clearBytes(dst[:len(src)])
		return
	case 1:
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	n := mulSetBulk(dst, src, c)
	mt := &mulTable[c]
	dst, src = dst[n:], src[n:]
	for i, s := range src {
		dst[i] = mt[s]
	}
}

// xorBytes computes dst[i] ^= src[i] over len(src) bytes, word-wide.
//
//predis:hotpath
func xorBytes(dst, src []byte) {
	dst = dst[:len(src)]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// clearBytes zeroes b (compiles to a memclr).
//
//predis:hotpath
func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
