package erasure

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Errors returned by the coder.
var (
	ErrInvalidParams = errors.New("erasure: data and parity shard counts must be positive and total ≤ 256")
	ErrShardCount    = errors.New("erasure: wrong number of shards")
	ErrShardSize     = errors.New("erasure: shards have inconsistent sizes")
	ErrTooFewShards  = errors.New("erasure: not enough shards to reconstruct")
	ErrShortData     = errors.New("erasure: shard size must be positive")
)

var tablesOnce sync.Once

// Coder encodes data into data+parity shards and reconstructs missing
// shards from any `data` survivors. A Coder's parameters and encoding
// matrix are immutable and it is safe for concurrent use; the decode
// cache below is copy-on-write so concurrent decodes stay safe.
type Coder struct {
	data, parity int
	// enc is the (data+parity)×data encoding matrix whose top square is the
	// identity, so shards[0:data] are the data verbatim (systematic code).
	enc *matrix
	// decCache memoizes inverted decode sub-matrices keyed by the shard
	// index set the reconstruction read from. Loss patterns repeat
	// (Multi-Zone reassembles from whichever n_c−f relayers answer, and
	// the same subset keeps answering), so the Gauss–Jordan inversion —
	// the dominant per-Reconstruct cost at paper shard counts — runs
	// once per distinct survivor set. Writers copy the map, so a lookup
	// takes no lock and, keyed by string(idx), allocates nothing.
	decCache atomic.Pointer[map[string]*matrix] // string(survivor row indices) → inverse
}

// New creates a coder producing `data` data shards and `parity` parity
// shards. In Multi-Zone a bundle is encoded with data = n_c − f and
// parity = f so that any n_c − f of the n_c stripes reconstruct it.
func New(data, parity int) (*Coder, error) {
	if data <= 0 || parity < 0 || data+parity > 256 {
		return nil, fmt.Errorf("%w: data=%d parity=%d", ErrInvalidParams, data, parity)
	}
	tablesOnce.Do(initTables)
	n := data + parity
	vm := vandermonde(n, data)
	top := vm.subMatrix(0, data, 0, data)
	topInv, ok := top.invert()
	if !ok {
		// A Vandermonde top square over distinct points is always
		// invertible; reaching here is a programming error.
		return nil, errors.New("erasure: vandermonde top square singular")
	}
	return &Coder{data: data, parity: parity, enc: vm.mul(topInv)}, nil
}

// TotalShards returns data+parity.
func (c *Coder) TotalShards() int { return c.data + c.parity }

// Encode fills shards[data:] (parity) from shards[:data] (data). All shards
// must be non-nil and the same length.
func (c *Coder) Encode(shards [][]byte) error {
	if err := c.checkShards(shards, true); err != nil {
		return err
	}
	for p := 0; p < c.parity; p++ {
		out := shards[c.data+p]
		row := c.enc.row(c.data + p)
		mulSet(out, shards[0], row[0])
		for d := 1; d < c.data; d++ {
			mulAndAdd(out, shards[d], row[d])
		}
	}
	return nil
}

// Reconstruct fills in nil shards in place. At least `data` shards must be
// present. Present shards are never modified.
func (c *Coder) Reconstruct(shards [][]byte) error {
	size, err := c.survivors(shards)
	if err != nil || size < 0 {
		return err
	}
	var buf [256]byte
	idx := c.decodeRows(shards, buf[:0])
	dec, err := c.decodeMatrix(idx)
	if err != nil {
		return err
	}
	// Recover missing data shards: dataShard[d] = dec.row(d) · survivors.
	// Only nil entries are filled, so shards[idx[k]] stays the survivor.
	for d := 0; d < c.data; d++ {
		if shards[d] != nil {
			continue
		}
		out := make([]byte, size)
		row := dec.row(d)
		for k := 0; k < c.data; k++ {
			mulAndAdd(out, shards[idx[k]], row[k])
		}
		shards[d] = out
	}
	// Recompute missing parity shards from the (now complete) data shards.
	for p := 0; p < c.parity; p++ {
		i := c.data + p
		if shards[i] != nil {
			continue
		}
		out := make([]byte, size)
		row := c.enc.row(i)
		for k := 0; k < c.data; k++ {
			mulAndAdd(out, shards[k], row[k])
		}
		shards[i] = out
	}
	return nil
}

// DecodeData returns the original byte string of length outLen from any
// `data` of the shards, rebuilding missing data shards straight into the
// result: bundle reassembly needs neither the parity shards nor a copy of
// a rebuilt shard. The result is buf[:outLen] when buf has the capacity
// the decode needs (data × shard size), and a new slice otherwise, so a
// caller can reuse one buffer across decodes. No shard is modified.
func (c *Coder) DecodeData(shards [][]byte, outLen int, buf []byte) ([]byte, error) {
	size, err := c.survivors(shards)
	if err != nil {
		return nil, err
	}
	if size < 0 {
		size = len(shards[0]) // all present
	}
	if size*c.data < outLen {
		return nil, fmt.Errorf("erasure: shards hold %d bytes, need %d", size*c.data, outLen)
	}
	out := buf[:0]
	if cap(out) < size*c.data {
		out = make([]byte, size*c.data)
	}
	out = out[:size*c.data]
	var idxBuf [256]byte
	idx := c.decodeRows(shards, idxBuf[:0])
	var dec *matrix
	for d := 0; d < c.data; d++ {
		dst := out[d*size : (d+1)*size]
		if shards[d] != nil {
			copy(dst, shards[d])
			continue
		}
		if dec == nil {
			if dec, err = c.decodeMatrix(idx); err != nil {
				return nil, err
			}
		}
		row := dec.row(d)
		mulSet(dst, shards[idx[0]], row[0])
		for k := 1; k < c.data; k++ {
			mulAndAdd(dst, shards[idx[k]], row[k])
		}
	}
	return out[:outLen], nil
}

// survivors checks a shard set for reconstruction and returns the shard
// size, or -1 when no shard is missing.
func (c *Coder) survivors(shards [][]byte) (int, error) {
	if len(shards) != c.TotalShards() {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.TotalShards())
	}
	size := -1
	present := 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		present++
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if present == len(shards) {
		return -1, nil // nothing missing
	}
	if present < c.data {
		return 0, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, present, c.data)
	}
	if size <= 0 {
		return 0, ErrShortData
	}
	return size, nil
}

// decodeRows appends to idx the rows that feed a reconstruction — the
// first `data` present shards — which determine the decode matrix. (A
// Coder has at most 256 shards, so callers keep idx on the stack.)
func (c *Coder) decodeRows(shards [][]byte, idx []byte) []byte {
	for i := 0; i < c.TotalShards() && len(idx) < c.data; i++ {
		if shards[i] != nil {
			idx = append(idx, byte(i))
		}
	}
	return idx
}

// decodeMatrix returns the inverse of the encoding sub-matrix formed by
// the given survivor row indices, memoized per distinct index set. The
// returned matrix is shared and must be treated as read-only.
func (c *Coder) decodeMatrix(idx []byte) (*matrix, error) {
	if cache := c.decCache.Load(); cache != nil {
		if dec := (*cache)[string(idx)]; dec != nil {
			return dec, nil
		}
	}
	sub := newMatrix(c.data, c.data)
	for r, i := range idx {
		copy(sub.row(r), c.enc.row(int(i)))
	}
	dec, ok := sub.invert()
	if !ok {
		return nil, errors.New("erasure: decode matrix singular")
	}
	for {
		old := c.decCache.Load()
		next := make(map[string]*matrix)
		if old != nil {
			maps.Copy(next, *old)
		}
		next[string(idx)] = dec
		if c.decCache.CompareAndSwap(old, &next) {
			return dec, nil
		}
	}
}

// Verify recomputes parity from the data shards and reports whether every
// parity shard matches. All shards must be present.
func (c *Coder) Verify(shards [][]byte) (bool, error) {
	if err := c.checkShards(shards, true); err != nil {
		return false, err
	}
	size := len(shards[0])
	buf := make([]byte, size)
	for p := 0; p < c.parity; p++ {
		row := c.enc.row(c.data + p)
		mulSet(buf, shards[0], row[0])
		for d := 1; d < c.data; d++ {
			mulAndAdd(buf, shards[d], row[d])
		}
		got := shards[c.data+p]
		for i := range buf {
			if buf[i] != got[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

func (c *Coder) checkShards(shards [][]byte, all bool) error {
	if len(shards) != c.TotalShards() {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.TotalShards()) //predis:allocok caller bug, never steady state
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if all {
				return fmt.Errorf("%w: shard %d is nil", ErrShardSize, i) //predis:allocok caller bug, never steady state
			}
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSize
		}
	}
	if size <= 0 {
		return ErrShortData
	}
	return nil
}

// Split pads data to a multiple of the shard count and slices it into
// data+parity equal shards (parity shards allocated but not yet encoded).
// It returns the shards; the original length must be remembered by the
// caller (Join takes it back).
func (c *Coder) Split(data []byte) [][]byte {
	shardSize := (len(data) + c.data - 1) / c.data
	if shardSize == 0 {
		shardSize = 1
	}
	shards := make([][]byte, c.TotalShards())
	padded := make([]byte, shardSize*c.data)
	copy(padded, data)
	for d := 0; d < c.data; d++ {
		shards[d] = padded[d*shardSize : (d+1)*shardSize]
	}
	for p := 0; p < c.parity; p++ {
		shards[c.data+p] = make([]byte, shardSize)
	}
	return shards
}

// Join reassembles the original byte string of length outLen from the data
// shards.
func (c *Coder) Join(shards [][]byte, outLen int) ([]byte, error) {
	if len(shards) < c.data {
		return nil, ErrShardCount
	}
	out := make([]byte, 0, outLen)
	for d := 0; d < c.data && len(out) < outLen; d++ {
		if shards[d] == nil {
			return nil, fmt.Errorf("%w: data shard %d missing", ErrTooFewShards, d)
		}
		out = append(out, shards[d]...)
	}
	if len(out) < outLen {
		return nil, fmt.Errorf("erasure: shards hold %d bytes, need %d", len(out), outLen)
	}
	return out[:outLen], nil
}

// StripeSize returns the stripe length for a payload of the given size.
func (c *Coder) StripeSize(payloadLen int) int {
	s := (payloadLen + c.data - 1) / c.data
	if s == 0 {
		s = 1
	}
	return s
}
