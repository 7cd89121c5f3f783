package microblock

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"predis/internal/consensus"
	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/types"
	"predis/internal/wire"
)

// Scheme selects the availability primitive.
type Scheme int

// Schemes.
const (
	// SchemeNarwhal: reliable broadcast, n_c−f acks per microblock,
	// production chained on the previous certificate.
	SchemeNarwhal Scheme = iota + 1
	// SchemeStratus: provably available broadcast, f+1 acks, unchained
	// production.
	SchemeStratus
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case SchemeNarwhal:
		return "Narwhal"
	case SchemeStratus:
		return "Stratus"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

const (
	// maxIDs is the identifier cap per proposal; 1000 is the default of
	// both open-source systems per §V-A.
	maxIDs = 1000
	// certTimeout bounds how long a certificate waits for a piggyback
	// before being broadcast standalone.
	certTimeout = 100 * time.Millisecond
)

// Options configures an App.
type Options struct {
	Scheme Scheme
	// NC and F describe the consensus group; IDs 0..NC-1.
	NC, F int
	// Self is this node's ID.
	Self wire.NodeID
	// Signer signs microblocks and acks.
	Signer crypto.Signer
	// MBSize is the transaction cap per microblock (paper: 50).
	MBSize int
	// MBInterval is the production tick.
	MBInterval time.Duration
	// OnCommit receives committed transactions in order.
	OnCommit func(height uint64, txs []*types.Transaction)
}

// App is the shared-mempool application (Narwhal or Stratus flavour). It
// implements consensus.Application and env-style message handling, and
// must run on a node's serialized executor.
type App struct {
	opts  Options
	ctx   env.Context
	peers []wire.NodeID

	queue []*types.Transaction

	// mp holds each producer's batches as its bundle chain, whose confirmed
	// height is its committed prefix; above, per producer, the heights
	// committed past it; opened, where its last holder rotation began.
	mp     *core.Mempool
	fetch  *core.FetchPlane
	above  []map[uint64]bool
	opened []uint64

	// certified holds each certified, uncommitted batch's certificate, and
	// certOrder their ids in arrival order (OnCommit drops committed ones).
	certified map[crypto.Hash]*Cert
	certOrder []crypto.Hash
	inflight  map[crypto.Hash]uint64

	// producer state: certificates of own batches being collected (one at
	// most under Narwhal), and the last one formed
	ackSets     map[crypto.Hash]*Cert
	lastCert    *Cert // to piggyback on the next microblock
	certCarried bool

	engine    consensus.Engine
	tick      env.Timer
	txsCommit uint64
}

var _ consensus.Application = (*App)(nil)

// New builds the app.
func New(opts Options) (*App, error) {
	if opts.Scheme != SchemeNarwhal && opts.Scheme != SchemeStratus {
		return nil, fmt.Errorf("microblock: unknown scheme %d", opts.Scheme)
	}
	mp, err := core.NewMempool(core.Params{
		NC: opts.NC, F: opts.F,
		BundleSize:     opts.MBSize,
		BundleInterval: opts.MBInterval,
		Signer:         opts.Signer,
	})
	if err != nil {
		return nil, fmt.Errorf("microblock: %w", err)
	}
	a := &App{
		opts:      opts,
		peers:     make([]wire.NodeID, opts.NC),
		mp:        mp,
		above:     make([]map[uint64]bool, opts.NC),
		opened:    make([]uint64, opts.NC),
		certified: make(map[crypto.Hash]*Cert),
		inflight:  make(map[crypto.Hash]uint64),
		ackSets:   make(map[crypto.Hash]*Cert),
	}
	for i := range a.peers {
		a.peers[i] = wire.NodeID(i)
		a.above[i] = make(map[uint64]bool)
	}
	a.fetch = core.NewFetchPlane(mp, env.DefaultBackoff(2*mp.Params().BundleInterval), core.ChainHolders(mp, opts.Self))
	mp.SetOnLink(a.onLink)
	return a, nil
}

// threshold returns the ack quorum for the scheme.
func (a *App) threshold() int {
	if a.opts.Scheme == SchemeNarwhal {
		return a.opts.NC - a.opts.F
	}
	return a.opts.F + 1
}

// SetEngine wires the consensus engine for pokes.
func (a *App) SetEngine(e consensus.Engine) { a.engine = e }

// Stats returns (microblocks produced, transactions committed).
func (a *App) Stats() (produced, committed uint64) { return a.mp.Tip(a.opts.Self), a.txsCommit }

// Mempool exposes the batch store (read-only).
func (a *App) Mempool() *core.Mempool { return a.mp }

// Start arms the production timer.
func (a *App) Start(ctx env.Context) {
	a.ctx = ctx
	a.fetch.Start(ctx)
	a.armTick()
}

// OnRestart implements env.Restartable: re-arm the production tick, drop
// the fetches whose timers died with the crash, and re-send, in height
// order, each own microblock whose acks the crash dropped.
func (a *App) OnRestart() {
	if a.ctx == nil {
		return
	}
	a.tick.Stop()
	a.armTick()
	a.fetch.Reset()
	clear(a.opened)
	for h := a.mp.ConfirmedHeight(a.opts.Self) + 1; h <= a.mp.Tip(a.opts.Self); h++ {
		if b := a.mp.Bundle(a.opts.Self, h); a.ackSets[b.Header.Hash()] != nil {
			env.Multicast(a.ctx, a.peers, &Microblock{Bundle: b})
		}
	}
}

func (a *App) armTick() {
	a.tick = a.ctx.After(a.mp.Params().BundleInterval, func() {
		a.tryProduce()
		a.armTick()
	})
}

// SubmitTx enqueues a client transaction.
func (a *App) SubmitTx(tx *types.Transaction) {
	a.queue = append(a.queue, tx)
	if len(a.queue) >= a.mp.Params().BundleSize {
		a.tryProduce()
	}
}

// tryProduce emits the next microblock, the next bundle on this node's
// chain, when allowed: Narwhal requires the previous one to be certified
// first; Stratus produces freely.
func (a *App) tryProduce() {
	self := a.opts.Self
	for len(a.queue) > 0 {
		if a.opts.Scheme == SchemeNarwhal && len(a.ackSets) > 0 {
			return // RBC chaining: wait for the certificate
		}
		n := min(a.mp.Params().BundleSize, len(a.queue))
		txs := a.queue[:n:n]
		a.queue = a.queue[n:]
		tips := a.mp.Tips()
		tips[self]++ // the producer holds the bundle it is creating
		b := core.PackBundle(a.opts.Signer, self, a.mp.TipHeader(self), txs, tips)
		if _, _, _, err := a.mp.AddBundle(b); err != nil {
			a.ctx.Logf("microblock: own batch rejected: %v", err)
			return
		}
		mb := &Microblock{Bundle: b}
		if a.lastCert != nil && !a.certCarried {
			mb.PrevCert = a.lastCert
			a.certCarried = true
		}
		// Seed the ack set with our own signature.
		id := b.Header.Hash()
		a.ackSets[id] = &Cert{
			Digest: id, Producer: self, Height: b.Header.Height,
			Signers: []wire.NodeID{self},
			Sigs:    [][]byte{a.opts.Signer.Sign(ackDigest(id, self, b.Header.Height))},
		}
		env.Multicast(a.ctx, a.peers, mb)
	}
}

// Receive handles data-plane messages (routed by the node layer), the fetch
// plane's included.
func (a *App) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *Microblock:
		a.learnCert(msg.PrevCert)
		a.onBundle(from, msg.Bundle, from == msg.Bundle.Header.Producer)
	case *Ack:
		a.onAck(from, msg)
	case *CertMsg:
		a.learnCert(msg.Cert)
	case *core.BundleRequest:
		core.ServeBundles(a.ctx, a.mp, from, msg)
	case *core.BundleResponse:
		fresh := false
		for _, b := range msg.Bundles {
			fresh = a.onBundle(from, b, false) || fresh
		}
		a.fetch.Answered(from, msg.Bundles, fresh)
	default:
		a.ctx.Logf("microblock: unexpected %s from %d", wire.TypeName(m.Type()), from)
	}
}

// onBundle stores a batch and reports whether it linked into its chain
// (onLink acknowledges it); a gap its chain now shows below held batches
// goes to the fetch plane. direct: it came straight from its producer,
// which re-sends only after a restart lost the acks, so one already held
// is acknowledged again.
func (a *App) onBundle(from wire.NodeID, b *core.Bundle, direct bool) bool {
	res, _, _, err := a.mp.AddBundle(b)
	if err != nil {
		a.ctx.Logf("microblock: batch from %d rejected: %v", from, err)
		return false
	}
	if res == core.Duplicate && direct {
		a.ack(b)
	}
	if hole := a.mp.Hole(b.Header.Producer); hole != nil {
		a.need(hole.Producer, hole.To)
	}
	return res == core.Added
}

// need asks the fetch plane for producer's chain up to height to. A rotation
// that opens where the last one did means that one found nothing: every
// holder pruned the hole while this node was down. With no committed block to
// anchor on, the chain skips the hole, as committed, and links what is above.
func (a *App) need(producer wire.NodeID, to uint64) {
	from := a.mp.Tip(producer) + 1
	if !a.fetch.Need(producer, to, wire.NoNode, wire.NoNode) {
		return
	}
	if hole := a.mp.Hole(producer); hole != nil && a.opened[producer] == from {
		a.mp.SkipTo(producer, hole.To)
		clear(a.above[producer])
		a.forget()
	}
	a.opened[producer] = from
}

// onLink is the mempool's link hook: a peer's batch that joins its chain is
// acknowledged to its producer, and a pending proposal may now validate.
func (a *App) onLink(b *core.Bundle) {
	if b.Header.Producer != a.opts.Self {
		a.ack(b)
		a.poke()
	}
}

// ack acknowledges a held peer's batch to its producer.
func (a *App) ack(b *core.Bundle) {
	id := b.Header.Hash()
	sig := a.opts.Signer.Sign(ackDigest(id, b.Header.Producer, b.Header.Height))
	a.ctx.Send(b.Header.Producer, &Ack{Digest: id, Replica: a.opts.Self, Sig: sig})
}

func (a *App) onAck(from wire.NodeID, m *Ack) {
	if m.Replica != from || int(m.Replica) >= a.opts.NC {
		return
	}
	cert, ok := a.ackSets[m.Digest]
	if !ok {
		return // not ours or already certified
	}
	if slices.Contains(cert.Signers, m.Replica) ||
		!a.opts.Signer.Verify(int(m.Replica), ackDigest(m.Digest, cert.Producer, cert.Height), m.Sig) {
		return
	}
	cert.Signers = append(cert.Signers, m.Replica)
	cert.Sigs = append(cert.Sigs, m.Sig)
	if len(cert.Signers) >= a.threshold() {
		// Valid by construction: each share was verified on arrival, from a
		// distinct replica below NC, and nothing appends to it after this.
		cert.memo.Claim()
		delete(a.ackSets, m.Digest)
		a.onCertified(cert)
	}
}

// onCertified handles a freshly formed certificate for one of our own
// microblocks.
func (a *App) onCertified(cert *Cert) {
	a.learnCert(cert)
	a.lastCert = cert
	a.certCarried = false
	switch a.opts.Scheme {
	case SchemeStratus:
		// PAB: ship the proof immediately so the leader can propose.
		env.Multicast(a.ctx, a.peers, &CertMsg{Cert: cert})
		a.certCarried = true
	case SchemeNarwhal:
		// RBC: the next microblock piggybacks it; a timer covers the tail.
		a.tryProduce()
		if !a.certCarried {
			a.ctx.After(certTimeout, func() {
				if a.lastCert == cert && !a.certCarried {
					env.Multicast(a.ctx, a.peers, &CertMsg{Cert: cert})
					a.certCarried = true
				}
			})
		}
	}
}

// learnCert records a certificate, if any, once it verifies (our own
// certificates answer from their memo).
func (a *App) learnCert(cert *Cert) {
	if cert == nil || a.certified[cert.Digest] != nil ||
		!cert.Verify(a.opts.Signer, a.opts.NC, a.threshold()) || a.committed(cert.Producer, cert.Height) {
		return
	}
	a.certified[cert.Digest] = cert
	a.certOrder = append(a.certOrder, cert.Digest)
	a.poke()
}

// find returns the held batch whose header hash is id, or nil. It scans
// every chain newest first (Mempool.Bundle is nil past a tip or base): a
// proposal names recent batches and can overtake their certificates.
func (a *App) find(id crypto.Hash) *core.Bundle {
	for depth, held := uint64(0), true; held; depth++ {
		held = false
		for _, p := range a.peers {
			b := a.mp.Bundle(p, a.mp.Tip(p)-depth)
			if b != nil && b.Header.Hash() == id {
				return b
			}
			held = held || b != nil
		}
	}
	return nil
}

// committed reports whether the batch at (producer, height) has committed.
func (a *App) committed(producer wire.NodeID, height uint64) bool {
	return a.above[producer][height] || height <= a.mp.ConfirmedHeight(producer)
}

// confirm records the batch at (producer, height) as committed, and moves
// its chain's confirmed height, which prunes, over the run now contiguous.
func (a *App) confirm(producer wire.NodeID, height uint64) {
	a.above[producer][height] = true
	c := a.mp.ConfirmedHeight(producer)
	for a.committed(producer, c+1) {
		delete(a.above[producer], c+1)
		c++
	}
	a.mp.MarkConfirmed(producer, c)
}

// forget drops the certificates of committed batches.
func (a *App) forget() {
	maps.DeleteFunc(a.certified, func(_ crypto.Hash, c *Cert) bool { return a.committed(c.Producer, c.Height) })
	a.certOrder = slices.DeleteFunc(a.certOrder, func(id crypto.Hash) bool { return a.certified[id] == nil })
}

func (a *App) poke() {
	if a.engine != nil {
		a.engine.Poke()
	}
}

// proposable reports whether a certified id is not in flight.
func (a *App) proposable(id crypto.Hash) bool {
	_, fly := a.inflight[id]
	return !fly
}

// HasPendingWork implements consensus.Application.
func (a *App) HasPendingWork() bool {
	return len(a.queue) > 0 || slices.ContainsFunc(a.certOrder, a.proposable)
}

// BuildProposal implements consensus.Application: propose up to maxIDs
// certified, uncommitted, not-in-flight identifiers.
func (a *App) BuildProposal(height uint64, parent wire.Message) (wire.Message, crypto.Hash, bool) {
	ids := make([]crypto.Hash, 0, maxIDs)
	for _, id := range a.certOrder {
		if len(ids) >= maxIDs {
			break
		}
		if a.proposable(id) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, crypto.ZeroHash, false
	}
	for _, id := range ids {
		a.inflight[id] = height
	}
	payload := &IDList{Height: height, IDs: ids}
	return payload, payload.Digest(), true
}

// ValidateProposal implements consensus.Application. A batch it does not
// hold is fetched up to its certificate's hint; with no certificate known,
// the gap its chain shows once a later batch arrives covers it.
func (a *App) ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error) {
	list, ok := payload.(*IDList)
	if !ok || list.Height != height || len(list.IDs) == 0 || len(list.IDs) > maxIDs {
		return crypto.ZeroHash, fmt.Errorf("microblock: malformed payload %T at height %d", payload, height)
	}
	missing := false
	seen := make(map[crypto.Hash]struct{}, len(list.IDs))
	for _, id := range list.IDs {
		if _, dup := seen[id]; dup {
			return crypto.ZeroHash, errors.New("microblock: duplicate id in proposal")
		}
		seen[id] = struct{}{}
		if b := a.find(id); b != nil {
			if a.committed(b.Header.Producer, b.Header.Height) {
				return crypto.ZeroHash, errors.New("microblock: proposal re-includes committed id")
			}
			continue
		}
		missing = true
		if c := a.certified[id]; c != nil {
			a.need(c.Producer, c.Height)
		}
	}
	if missing {
		return crypto.ZeroHash, consensus.ErrPending
	}
	return list.Digest(), nil
}

// OnCommit implements consensus.Application.
func (a *App) OnCommit(height uint64, payload wire.Message) {
	list, ok := payload.(*IDList)
	if !ok {
		return
	}
	var txs []*types.Transaction
	for _, id := range list.IDs {
		b := a.find(id)
		if b == nil {
			a.ctx.Logf("microblock: commit with unfetched id %s", id.Short())
			continue
		}
		if a.committed(b.Header.Producer, b.Header.Height) {
			continue
		}
		a.confirm(b.Header.Producer, b.Header.Height)
		txs = append(txs, b.Txs...)
	}
	a.txsCommit += uint64(len(txs))
	a.forget()
	// An id proposed at this height or below is in the chain now, or was
	// stranded in an abandoned proposal and is proposable again.
	maps.DeleteFunc(a.inflight, func(_ crypto.Hash, h uint64) bool { return h <= height })
	if a.opts.OnCommit != nil {
		a.opts.OnCommit(height, txs)
	}
	a.poke()
}
