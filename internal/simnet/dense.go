package simnet

// bitset is a grow-only bitset over dense node indices; it backs the
// crashed set so the Send/dispatch hot paths test liveness with one
// shift-and-mask instead of a map lookup.
type bitset struct {
	words []uint64
}

// grow ensures the set can hold n bits.
func (b *bitset) grow(n int) {
	want := (n + 63) >> 6
	for len(b.words) < want {
		b.words = append(b.words, 0)
	}
}

// get reports bit i; negative i (the noIndex sentinel) is always false.
//
//predis:hotpath
func (b *bitset) get(i int32) bool {
	if i < 0 {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (b *bitset) set(i int32)   { b.words[i>>6] |= 1 << (uint(i) & 63) }
func (b *bitset) clear(i int32) { b.words[i>>6] &^= 1 << (uint(i) & 63) }
