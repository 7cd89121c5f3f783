// Package erasure implements systematic Reed–Solomon erasure coding over
// GF(2^8), the substrate Multi-Zone uses to split bundles into stripes
// (§IV-D). A bundle encoded with parameters (data=n_c−f, parity=f) can be
// reconstructed from any n_c−f of its n_c stripes, which is exactly the
// availability bound the paper relies on.
//
// The implementation follows the classic Plank construction: an extended
// Vandermonde matrix is reduced so its top square is the identity, making
// the code systematic (data shards appear verbatim), and decoding inverts
// the sub-matrix corresponding to the surviving shards.
package erasure

// GF(2^8) arithmetic modulo x^8+x^4+x^3+x^2+1 (0x11d), the polynomial of
// most storage Reed–Solomon codes, Backblaze's included. It is not the AES
// polynomial x^8+x^4+x^3+x+1 (0x11b), which is why GFNI's GF2P8MULB, fixed
// to 0x11b, cannot serve as the multiply kernel here.
const gfPoly = 0x11d

var (
	gfExp [512]byte // exp table, doubled to avoid mod in mul
	gfLog [256]byte
)

// initTables fills the exp/log tables. It runs once from New via sync.Once
// in rs.go rather than init(), per the no-init style rule.
func initTables() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	initMulTable()
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b; b must be nonzero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse; a must be nonzero.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExpPow returns a**n for field element a.
func gfExpPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	logA := int(gfLog[a])
	return gfExp[(logA*n)%255]
}

// mulRowAdd computes dst[i] ^= c * src[i] for all i. It is the inner loop of
// both encoding and decoding.
func mulRowAdd(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}

// mulRowSet computes dst[i] = c * src[i] for all i.
func mulRowSet(dst, src []byte, c byte) {
	if c == 0 {
		for i := range dst[:len(src)] {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
		} else {
			dst[i] = gfExp[logC+int(gfLog[s])]
		}
	}
}

// matrix is a dense byte matrix, rows × cols.
type matrix struct {
	rows, cols int
	d          []byte
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, d: make([]byte, rows*cols)}
}

func (m *matrix) at(r, c int) byte     { return m.d[r*m.cols+c] }
func (m *matrix) set(r, c int, v byte) { m.d[r*m.cols+c] = v }
func (m *matrix) row(r int) []byte     { return m.d[r*m.cols : (r+1)*m.cols] }
func (m *matrix) swapRows(a, b int) {
	if a == b {
		return
	}
	ra, rb := m.row(a), m.row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// vandermonde builds the rows×cols matrix with entry (r,c) = r**c.
func vandermonde(rows, cols int) *matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfExpPow(byte(r), c))
		}
	}
	return m
}

// mul returns m × other.
func (m *matrix) mul(other *matrix) *matrix {
	if m.cols != other.rows {
		panic("erasure: matrix dimension mismatch")
	}
	out := newMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		orow := out.row(r)
		for k := 0; k < m.cols; k++ {
			mulRowAdd(orow, other.row(k), m.at(r, k))
		}
	}
	return out
}

// subMatrix copies rows [r0,r1) and cols [c0,c1).
func (m *matrix) subMatrix(r0, r1, c0, c1 int) *matrix {
	out := newMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.row(r-r0), m.row(r)[c0:c1])
	}
	return out
}

// invert returns the inverse of a square matrix via Gauss–Jordan
// elimination, or false when singular.
func (m *matrix) invert() (*matrix, bool) {
	if m.rows != m.cols {
		panic("erasure: invert on non-square matrix")
	}
	n := m.rows
	// Work on an augmented copy [m | I].
	work := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work.row(r)[:n], m.row(r))
		work.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		work.swapRows(col, pivot)
		// Scale pivot row to 1.
		inv := gfInv(work.at(col, col))
		prow := work.row(col)
		mulRowSet(prow, append([]byte(nil), prow...), inv)
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			c := work.at(r, col)
			if c != 0 {
				mulRowAdd(work.row(r), prow, c)
			}
		}
	}
	return work.subMatrix(0, n, n, 2*n), true
}

// identity returns the n×n identity matrix.
func identity(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}
