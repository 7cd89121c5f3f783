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
