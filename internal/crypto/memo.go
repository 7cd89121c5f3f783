package crypto

// Memo records, on an object that one process hands to many receivers,
// that a check passed for that very object, so the receivers after the
// first skip it. The simulator delivers the sender's own pointer to every
// recipient, so a bundle header, a Predis block or a consensus vote would
// otherwise be re-verified once per receiving node.
//
// A memo is guarded by its own address: Own reports whether the holder is
// the object that claimed it, so a value copy (which carries the
// original's address) checks afresh, as does anything decoded from a
// frame (which starts zero). Signed also names the signature that passed
// by its backing array, so a holder whose signature was replaced checks
// afresh too. A failed check is never recorded. What no guard sees is an
// in-place edit of the claimed object's signed fields; such objects are
// immutable once sent, and a test that wants a rejection builds a copy.
//
// A holder stores a memoized value (a hash) before it claims. A derived
// check, a bool set after a further check passed, is read only while the
// memo is owned, and the method that claims the memo clears it.
type Memo struct {
	at  *Memo
	sig *[SignatureSize]byte
}

// Own reports whether this holder claimed the memo at its current
// address.
func (m *Memo) Own() bool { return m.at == m }

// Claim makes the memo this holder's and forgets any signature recorded
// for the object it was copied from.
func (m *Memo) Claim() { m.at, m.sig = m, nil }

// Keep makes this holder, an unchanged copy of from's holder that a
// constructor just made of a checked object, take over from's record. A
// plain value copy re-derives.
func (m *Memo) Keep(from *Memo) {
	*m = Memo{}
	if from.Own() {
		m.at, m.sig = m, from.sig
	}
}

// Sign returns s's signature over h for node idx and, when s is node
// idx's own signer, records that it passed: set by construction, so the
// object's receivers do not check it.
func (m *Memo) Sign(s Signer, idx int, h Hash) []byte {
	sig := s.Sign(h)
	if s.Index() == idx {
		m.MarkSigned(sig)
	}
	return sig
}

// Verify reports whether sig is node idx's signature over h, checking it
// with s only when the holder has no record that it passed, and records a
// pass. A holder whose memo also covers h computes h first.
func (m *Memo) Verify(s Signer, idx int, h Hash, sig []byte) bool {
	if m.Signed(sig) {
		return true
	}
	if !s.Verify(idx, h, sig) {
		return false
	}
	m.MarkSigned(sig)
	return true
}

// Signed reports whether sig, the holder's current signature, is the one
// recorded by MarkSigned on this holder.
func (m *Memo) Signed(sig []byte) bool {
	return m.Own() && m.sig != nil && m.sig == sigArray(sig)
}

// MarkSigned records that sig passed its check for this holder, claiming
// the memo if it is not yet the holder's.
func (m *Memo) MarkSigned(sig []byte) {
	if !m.Own() {
		m.Claim()
	}
	m.sig = sigArray(sig)
}

// sigArray names a signature by its bytes: the same backing array at the
// same length. A slice of another length names none.
func sigArray(sig []byte) *[SignatureSize]byte {
	if len(sig) != SignatureSize {
		return nil
	}
	return (*[SignatureSize]byte)(sig)
}

// stackSignerWords is how many 64-bit words of signer bitset
// VerifyShares keeps on the stack: groups up to 256 members check a
// certificate without allocating.
const stackSignerWords = 4

// VerifyShares checks a quorum certificate of signature shares over
// digest: at least quorum shares from distinct signers below n, each valid
// by its signer. The count, range and duplicate checks depend on the
// caller's n and quorum and run every time; the signatures run once per
// certificate, recorded on memo, the certificate's own. digest is read
// only while memo is not owned, so a caller computes it only then.
//
//predis:hotpath
func VerifyShares[ID ~uint32](s Signer, memo *Memo, n, quorum int, signers []ID, sigs [][]byte, digest Hash) bool {
	if len(signers) < quorum || len(signers) != len(sigs) {
		return false
	}
	var stack [stackSignerWords]uint64
	seen := stack[:]
	if words := (n + 63) / 64; words > len(stack) {
		seen = make([]uint64, words) //predis:allocok groups above 256 members
	}
	for _, id := range signers {
		if int(id) >= n || seen[id/64]&(1<<(id%64)) != 0 {
			return false
		}
		seen[id/64] |= 1 << (id % 64)
	}
	if memo.Own() {
		return true
	}
	for i, id := range signers {
		if !s.Verify(int(id), digest, sigs[i]) {
			return false
		}
	}
	memo.Claim()
	return true
}
