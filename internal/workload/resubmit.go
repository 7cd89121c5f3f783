package workload

// sendRec is one send of a pending transaction: its seq and the client's
// send number n for it.
type sendRec struct{ seq, n uint64 }

// ring is a FIFO queue of send records in a power-of-two buffer that is
// reused as records pop and doubles only when full, so a steady stream of
// sends allocates nothing.
type ring struct {
	buf     []sendRec
	head, n int
}

func (r *ring) len() int { return r.n }

// front returns the oldest record; the ring must not be empty.
func (r *ring) front() sendRec { return r.buf[r.head] }

// pop removes the oldest record.
func (r *ring) pop() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// push appends a record.
func (r *ring) push(e sendRec) {
	if r.n == len(r.buf) {
		buf := make([]sendRec, max(64, 2*len(r.buf))) //predis:allocok doubling when full, amortized to nothing
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// seqPush inserts into the ready min-heap (ordered by sequence number, so
// overdue transactions resubmit oldest-first).
func seqPush(h *[]uint64, seq uint64) {
	s := append(*h, seq)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[i] >= s[p] {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

// seqPop removes and returns the smallest ready sequence number.
func seqPop(h *[]uint64) uint64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[c] >= s[i] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}
