package multizone

import (
	"math/bits"
	"slices"
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/ledger"
	"predis/internal/obs"
	"predis/internal/wire"
)

// FullNodeConfig parameterizes a Multi-Zone full node (relayer or ordinary
// node; the role is decided dynamically by Algorithm 1).
type FullNodeConfig struct {
	// Self is this node's ID.
	Self wire.NodeID
	// Zone is the node's zone index (assigned by locality at network
	// construction, §IV-A).
	Zone int
	// JoinSeq is the node's network join order; the paper derives it from
	// the position of registration transactions on chain, we assign it at
	// construction.
	JoinSeq uint64
	// NC and F describe the consensus group; consensus node IDs are
	// 0..NC-1 and consensus node i serves stripe i.
	NC, F int
	// Striper encodes/decodes stripes (must match the consensus side).
	Striper *Striper
	// Signer verifies bundle and block signatures (any index works; only
	// verification is used).
	Signer crypto.Signer
	// ZonePeers are the other full nodes of this zone (neighbor set and
	// relayer bootstrap).
	ZonePeers []wire.NodeID
	// BackupPeers are nodes in neighboring zones for digest exchange
	// (§IV-F).
	BackupPeers []wire.NodeID
	// MaxSubscribers caps total subscriptions this node accepts (Fig. 8
	// uses 24 to equalize bandwidth with the random topology).
	MaxSubscribers int
	// AliveInterval paces relayerAlive broadcasts and relayer-count checks.
	// (Zone links are leased on a fixed clock: see heartbeatInterval.)
	AliveInterval time.Duration
	// DigestInterval paces backup-connection digests (0 disables).
	DigestInterval time.Duration
	// OnBlockComplete fires when this node has reconstructed a full block
	// (Predis block + every referenced bundle).
	OnBlockComplete func(blk *core.PredisBlock, txs int)
	// OnBundle fires for every bundle this node assembles from stripes.
	OnBundle func(b *core.Bundle)
	// Ledger, when non-nil, records every completed block (§II: full
	// nodes maintain the ledger history).
	Ledger *ledger.Ledger
	// Executor, when non-nil, applies each completed block's semantic
	// operations to this full node's account state machine; the
	// resulting state root is stamped into the ledger entry so the
	// persisted chain commits to execution, not just ordering.
	Executor *exec.Machine
	// ExecSerial forces the reference serial committer (see node.Config).
	ExecSerial bool
	// OnExecute observes each executed block's result.
	OnExecute func(r exec.Result)
	// KeepConfirmed bounds retained bundles per chain.
	KeepConfirmed int
	// Trace, when non-nil, closes the stripe_distributed and
	// fullnode_delivered lifecycle spans (anchored by the consensus-side
	// distributor) when bundles assemble and blocks complete here. Nil
	// disables tracing at zero cost.
	Trace *obs.Tracer
}

const (
	// quarantineAfter is how many cryptographic offenses (a stripe whose
	// Merkle proof or bundle-header signature fails verification) a peer
	// may commit before a full node blacklists it. Only proof/signature
	// failures count — gaps, timeouts, and losses never do — so benign
	// runs are unaffected.
	quarantineAfter = 3
	// maxHeaderless caps a producer's header-less partials — bundles whose
	// references arrived before any carrier. An honest one waits about one
	// relay hop for its carrier (in 6-s predis-perf runs at most 51 ms on
	// fanout_lan, 334 ms across crash_lan's relayer crash), so a handful
	// are open at a time and no benchmark workload reaches the cap; it
	// bounds what a peer sending references to made-up headers can pin.
	maxHeaderless = 16
	// heartbeatInterval paces the heartbeats a full node sends over every
	// zone link, to its senders and its subscribers; a peer silent for
	// leaseAfter is dropped from the link, at full nodes and distributors
	// alike.
	heartbeatInterval = time.Second
	leaseAfter        = 3 * heartbeatInterval
)

// quarantineTTL is how long a quarantined peer stays blacklisted before
// it may serve or receive stripes again.
func (f *FullNode) quarantineTTL() time.Duration { return 8 * f.cfg.AliveInterval }

// staleAfter is how long a header-less partial may wait for a carrier of
// its header before the sweep expires it.
func (f *FullNode) staleAfter() time.Duration { return 8 * f.cfg.AliveInterval }

func (c *FullNodeConfig) withDefaults() FullNodeConfig {
	out := *c
	if out.MaxSubscribers <= 0 {
		out.MaxSubscribers = 64
	}
	if out.AliveInterval <= 0 {
		out.AliveInterval = 500 * time.Millisecond
	}
	return out
}

// link is one stripe index of a full node's subscription table: who feeds
// it to this node and whom this node feeds it to.
type link struct {
	sender  wire.NodeID   // who sends us the index; NoNode: nobody
	pending wire.NodeID   // where a subscribe for it is outstanding; NoNode: nowhere (see pendingAt)
	direct  bool          // taken straight from its consensus node: one of our relayed stripes
	heard   heardAt       // last traffic on it from its sender (see heard)
	asked   time.Time     // when it was last asked for again while silent
	subs    []wire.NodeID // who we forward it to, ascending
}

// pendingAt reports whether a subscribe for the index is outstanding at id.
// A link with nothing outstanding reads as outstanding at node 0, as the
// per-index map this table replaced read a missing key; the replies and
// timers of subscribes sent to consensus node 0 depend on it (ROADMAP).
func (l *link) pendingAt(id wire.NodeID) bool {
	return l.pending == id || l.pending == wire.NoNode && id == 0
}

// newLinks returns an empty table of nc links.
func newLinks(nc int) []link {
	links := make([]link, nc)
	for s := range links {
		links[s].sender, links[s].pending = wire.NoNode, wire.NoNode
	}
	return links
}

// relayerInfo tracks one known relayer of this node's zone. An entry with
// no stripes is a tombstone for a demoted relayer, kept so announcement
// versions stay monotonic.
type relayerInfo struct {
	joinSeq   uint64
	version   uint64
	stripes   []uint8
	lastAlive time.Time
}

// active reports whether the entry describes a live relayer (tombstones
// are not active).
func (r *relayerInfo) active() bool { return len(r.stripes) > 0 }

// partialBundle accumulates stripes for one bundle header. It stays in
// the dedup map until the bundle is confirmed, so it holds the bundle's
// coordinates, not a copy of the header: once known, stripes[first] is the
// carrier whose header signature was checked. Until then the partial is
// header-less: its coordinates are what the references claim, and every
// stripe in it is parked, sent by senders[index]. since is when its first
// stripe arrived.
type partialBundle struct {
	producer wire.NodeID
	height   uint64
	stripes  []*StripeMsg
	senders  []wire.NodeID
	since    time.Time
	have     int
	parked   int
	first    uint8
	known    bool
	done     bool
}

// root is the StripeRoot of a known partial's header.
func (p *partialBundle) root() crypto.Hash { return p.stripes[p.first].Header.StripeRoot }

// FullNode is a Multi-Zone full node: it subscribes to stripes, forwards
// them down its subscription tree, reassembles bundles, and reconstructs
// blocks from Predis blocks plus its local bundle chains.
type FullNode struct {
	cfg FullNodeConfig
	ctx env.Context
	mp  *core.Mempool
	// retry paces bundle-pull retries and catch-up rounds:
	// env.DefaultBackoff(AliveInterval).
	retry env.Backoff

	// Subscription state: links[s] is stripe index s (see setSubscriber).
	links        []link
	subscribers  []wire.NodeID // every subscriber of any index, ascending
	subCount     int           // total subscriptions accepted
	isRelayer    bool
	zoneRelayers map[wire.NodeID]*relayerInfo
	aliveVersion uint64 // our own announcement version counter

	// Data plane.
	partials map[crypto.Hash]*partialBundle // by header hash
	// freePartials recycles entries that left partials (reset, stripes
	// slice kept); headerless[i] counts producer i's header-less entries.
	freePartials []*partialBundle
	headerless   []int
	// Block plane; the committed head is the mempool's.
	seenBlocks map[crypto.Hash]uint64 // block hash → height, for blocks above the head
	pendBlocks []*core.PredisBlock    // completable once bundles arrive, in arrival order
	fetch      *core.FetchPlane       // asks for bundles stripes did not bring (see holders)
	catchup    *core.Catchup          // recovers missed blocks, serves peers' (recovery.go)

	// Periodic timers, stored so a restart can re-arm them (the fires
	// suppressed during a crash permanently kill a self-re-arming chain).
	aliveTimer     env.Timer
	heartbeatTimer env.Timer
	digestTimer    env.Timer

	// Liveness tracking.
	lastSeen map[wire.NodeID]time.Time

	// Byzantine hardening (see byzantine.go).
	offenses    map[wire.NodeID]int       // cryptographic offenses per peer
	quarantined map[wire.NodeID]time.Time // blacklist expiry per peer

	// The silence rule (see spare.go).
	spares []spare // indices taken beyond n_c−f while a subscribed index holds assembly up
	opened uint64  // partials opened: bundles that began to arrive
	// silenceAt is when onStripe next runs checkSilence.
	silenceAt time.Time

	// Stats.
	bundles     uint64
	blocks      uint64
	stripesIn   uint64
	rejected    uint64
	refetches   uint64
	quarantines uint64
	sparesTaken uint64
	// Parked reference stripes (see ParkStats).
	parkedIn, parkResolved, parkExpired uint64
	parkWaitMax                         time.Duration
}

var _ env.Handler = (*FullNode)(nil)

// NewFullNode builds a full node.
func NewFullNode(cfg FullNodeConfig) (*FullNode, error) {
	c := cfg.withDefaults()
	mp, err := core.NewMempool(core.Params{
		NC: c.NC, F: c.F, BundleSize: 1, // BundleSize unused on the receive path
		KeepConfirmed: c.KeepConfirmed,
		Signer:        c.Signer,
	})
	if err != nil {
		return nil, err
	}
	f := &FullNode{
		cfg:          c,
		mp:           mp,
		retry:        env.DefaultBackoff(c.AliveInterval),
		links:        newLinks(c.NC),
		zoneRelayers: make(map[wire.NodeID]*relayerInfo),
		partials:     make(map[crypto.Hash]*partialBundle),
		headerless:   make([]int, c.NC),
		seenBlocks:   make(map[crypto.Hash]uint64),
		lastSeen:     make(map[wire.NodeID]time.Time),
		offenses:     make(map[wire.NodeID]int),
		quarantined:  make(map[wire.NodeID]time.Time),
	}
	f.fetch = core.NewFetchPlane(mp, f.retry, f.holders)
	f.catchup = core.NewCatchup(mp, f.retry, f.catchupOwner())
	return f, nil
}

// IsRelayer reports whether this node currently relays stripes from
// consensus nodes.
func (f *FullNode) IsRelayer() bool { return f.isRelayer }

// RelayedStripes returns the stripes this node takes directly from
// consensus nodes (the paper's RelayedStripes()).
func (f *FullNode) RelayedStripes() []uint8 {
	var out []uint8
	for s, l := range f.links {
		if l.direct {
			out = append(out, uint8(s))
		}
	}
	return out
}

// Stats returns (stripes received, bundles assembled, blocks completed).
func (f *FullNode) Stats() (stripes, bundles, blocks uint64) {
	return f.stripesIn, f.bundles, f.blocks
}

// SpecStats returns zeros: full nodes receive a block only once it is
// committed, so there is no speculation to hit or waste. It is held only
// for cmd/predis-perf, whose multizone.spec_hit_frac metric still calls it.
func (f *FullNode) SpecStats() (hits, waste uint64) { return 0, 0 }

// ParkStats returns how many reference stripes arrived before their
// header and were parked, how many of those a carrier resolved (checked,
// then relayed or rejected) and how many were swept unresolved, and the
// longest a header-less partial waited for its carrier.
func (f *FullNode) ParkStats() (parked, resolved, expired uint64, maxWait time.Duration) {
	return f.parkedIn, f.parkResolved, f.parkExpired, f.parkWaitMax
}

// PullStats returns the fetch plane's counters (see core.FetchPlane.PullStats).
func (f *FullNode) PullStats() (requests, bundles, suppressed, retries uint64) {
	return f.fetch.PullStats()
}

// ID returns this node's wire identity.
func (f *FullNode) ID() wire.NodeID { return f.cfg.Self }

// LastHeight returns the height of the last completed block (or adopted
// anchor): the mempool's committed head.
func (f *FullNode) LastHeight() uint64 {
	head, _ := f.mp.Head()
	return head
}

// Mempool exposes the node's bundle store (read-only use).
func (f *FullNode) Mempool() *core.Mempool { return f.mp }

// Start implements env.Handler: bootstrap relayer discovery, then run
// Algorithm 1.
func (f *FullNode) Start(ctx env.Context) {
	f.ctx = ctx
	f.fetch.Start(ctx)
	f.catchup.Start(ctx)
	f.bootstrap()
	f.armAlive()
	f.armHeartbeat()
	if f.cfg.DigestInterval > 0 && len(f.cfg.BackupPeers) > 0 {
		f.armDigest()
	}
}

// bootstrap runs relayer discovery: ask a few zone peers for the current
// relayer set (Alg. 1 line 1), give responses a beat to arrive, then
// subscribe. The first node of a zone finds no relayers and goes straight
// to the consensus nodes. Also re-run on restart.
func (f *FullNode) bootstrap() {
	asked := 0
	for _, p := range f.cfg.ZonePeers {
		if asked >= 3 {
			break
		}
		f.ctx.Send(p, &GetRelayers{Zone: uint32(f.cfg.Zone)})
		asked++
	}
	f.ctx.After(50*time.Millisecond, f.runSubscription)
}

// runSubscription is Algorithm 1 over the indices wanted (see wanted):
// subscribe up to half of each relayer's relayed stripes, then take the
// remainder straight from consensus nodes (becoming a relayer).
func (f *FullNode) runSubscription() {
	needed := f.wanted()
	if len(needed) == 0 {
		return
	}
	neededSet := make([]bool, f.cfg.NC)
	for _, s := range needed {
		neededSet[s] = true
	}
	// Deterministic relayer order: by join sequence.
	type cand struct {
		id   wire.NodeID
		info *relayerInfo
	}
	cands := make([]cand, 0, len(f.zoneRelayers))
	for id, info := range f.zoneRelayers {
		if id != f.cfg.Self && info.active() && !f.isQuarantined(id) {
			cands = append(cands, cand{id, info})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].info.joinSeq < cands[j].info.joinSeq })
	for _, c := range cands {
		// Alg. 1 line 5: at most half of the relayer's stripes.
		max := (len(c.info.stripes) + 1) / 2
		var take []uint8
		for _, s := range c.info.stripes {
			if len(take) >= max {
				break
			}
			if int(s) < len(neededSet) && neededSet[s] {
				take = append(take, s)
				neededSet[s] = false
			}
		}
		if len(take) > 0 {
			f.sendSubscribe(c.id, take)
		}
	}
	// Alg. 1 lines 9-12: leftover stripes go straight to consensus node s.
	for s, left := range neededSet {
		if !left || f.isQuarantined(wire.NodeID(s)) {
			continue // a quarantined source is retried once the blacklist TTL expires
		}
		f.sendSubscribe(wire.NodeID(s), []uint8{uint8(s)})
	}
}

// wanted lists the indices to subscribe now. Any n_c − f stripes rebuild a
// bundle (§IV-D), so a node receives n_c − f indices: those it relays or
// forwards, then the fewest others. Indices no zone relayer takes from
// consensus come first, so every index enters the zone; the rest follow a
// rotation that starts at JoinSeq, so nodes skip different indices. A spare
// (spare.go) is not counted, but while one flows it takes the place of an
// index that left before anything new is asked for.
func (f *FullNode) wanted() []uint8 {
	short := f.cfg.NC - f.cfg.F
	var out []uint8
	for s := 0; s < f.cfg.NC; s++ {
		si := uint8(s)
		switch {
		case f.isSpare(si):
		case f.held(si):
			short--
		case len(f.links[si].subs) > 0:
			out = append(out, si)
			short--
		}
	}
	for ; short > 0 && len(f.spares) > 0; short-- {
		f.keepSpare(0)
	}
	if short <= 0 {
		return out
	}
	covered := make([]bool, f.cfg.NC)
	for s, l := range f.links {
		covered[s] = l.direct
	}
	for id, info := range f.zoneRelayers {
		if info.active() && !f.isQuarantined(id) {
			for _, s := range info.stripes {
				if int(s) < f.cfg.NC {
					covered[s] = true
				}
			}
		}
	}
	for _, uncovered := range []bool{true, false} {
		for k := 0; k < f.cfg.NC && short > 0; k++ {
			s := f.rotation(k)
			if covered[s] != uncovered && !f.held(s) && !slices.Contains(out, s) {
				out = append(out, s)
				short--
			}
		}
	}
	return out
}

// rotation is the k-th index of this node's preference order. It starts at
// the base-2 radical inverse of JoinSeq scaled to the ring (0, ½, ¼, ¾, …
// of n_c), so consecutive joiners start far apart.
func (f *FullNode) rotation(k int) uint8 {
	start, _ := bits.Mul64(bits.Reverse64(f.cfg.JoinSeq), uint64(f.cfg.NC))
	return uint8((start + uint64(k)) % uint64(f.cfg.NC))
}

// held reports whether stripe s arrives here, or has been asked for.
func (f *FullNode) held(s uint8) bool {
	l := &f.links[s]
	return l.sender != wire.NoNode || l.pending != wire.NoNode
}

// trimSubscriptions drops indices received beyond n_c − f that this node
// neither relays nor forwards, last in its rotation first: promotion, a
// forwarding duty or a spare turned regular can leave it one over.
func (f *FullNode) trimSubscriptions() {
	excess := f.cfg.F - f.cfg.NC
	for s := 0; s < f.cfg.NC; s++ {
		if f.held(uint8(s)) && !f.isSpare(uint8(s)) {
			excess++
		}
	}
	for k := f.cfg.NC - 1; k >= 0 && excess > 0; k-- {
		s := f.rotation(k)
		l := &f.links[s]
		if l.sender == wire.NoNode || l.pending != wire.NoNode || l.direct || len(l.subs) > 0 ||
			f.isSpare(s) || f.hasSpare(s) {
			continue
		}
		f.ctx.Send(l.sender, &Unsubscribe{Stripes: []uint8{s}})
		l.sender = wire.NoNode
		excess--
	}
}

func (f *FullNode) sendSubscribe(to wire.NodeID, stripes []uint8) {
	for _, s := range stripes {
		f.links[s].pending = to
	}
	f.ctx.Send(to, &Subscribe{Stripes: stripes})
	// Re-run the algorithm if the subscription goes unanswered.
	f.ctx.After(f.resubscribeAfter(), func() {
		stale := false
		for _, s := range stripes {
			if l := &f.links[s]; l.pendingAt(to) {
				l.pending = wire.NoNode
				stale = true
			}
		}
		if stale {
			f.runSubscription()
		}
	})
}

// Receive implements env.Handler.
func (f *FullNode) Receive(from wire.NodeID, m wire.Message) {
	f.lastSeen[from] = f.ctx.Now()
	if f.isQuarantined(from) {
		return // blacklisted peer: everything it sends is ignored until the TTL expires
	}
	switch msg := m.(type) {
	case *StripeMsg:
		f.onStripe(from, msg)
	case *ZoneBlock:
		f.onBlock(from, msg.Block)
	case *Subscribe:
		f.onSubscribe(from, msg)
	case *AcceptSubscribe:
		f.onAcceptSubscribe(from, msg)
	case *RejectSubscribe:
		f.onRejectSubscribe(from, msg)
	case *Unsubscribe:
		f.onUnsubscribe(from, msg)
	case *RelayerAlive:
		f.onRelayerAlive(from, msg)
	case *GetRelayers:
		f.onGetRelayers(from, msg)
	case *RelayersInfo:
		f.onRelayersInfo(from, msg)
	case *Leave:
		f.onLeave(from, msg)
	case *Heartbeat:
		// lastSeen already updated above.
	case *BlockDigest:
		f.onDigest(from, msg)
	case *core.CatchupRequest:
		f.catchup.ServeBlocks(from, msg)
	case *core.CatchupResponse:
		f.catchup.Answered(from, msg)
	case *core.BundleRequest:
		core.ServeBundles(f.ctx, f.mp, from, msg)
	case *core.BundleResponse:
		fresh := false
		for _, b := range msg.Bundles {
			fresh = f.storeBundle(b, true) || fresh
		}
		f.fetch.Answered(from, msg.Bundles, fresh)
		f.tryCompleteBlocks()
	default:
		f.ctx.Logf("multizone: unexpected %s from %d", wire.TypeName(m.Type()), from)
	}
}

// --- subscription control plane ---

func (f *FullNode) onSubscribe(from wire.NodeID, m *Subscribe) {
	if f.subCount+len(m.Stripes) > f.cfg.MaxSubscribers {
		// Refer the requester to our own subscribers (§IV-D).
		children := slices.Clone(f.subscribers[:min(len(f.subscribers), 4)])
		f.ctx.Send(from, &RejectSubscribe{Stripes: m.Stripes, Children: children})
		return
	}
	var accepted, fresh, refused []uint8
	unheld := false
	for _, s := range m.Stripes {
		if int(s) >= f.cfg.NC {
			continue
		}
		if l := &f.links[s]; l.sender == from || l.pendingAt(from) {
			// from feeds us s, or is about to: feeding it back would close
			// a loop no stripe enters. (Longer loops the silence rule
			// breaks.)
			refused = append(refused, s)
			continue
		}
		// A stripe we do not receive yet becomes ours to receive: we
		// forward it now (see wanted).
		unheld = unheld || !f.held(s)
		if f.setSubscriber(s, from, true) {
			fresh = append(fresh, s)
		}
		accepted = append(accepted, s)
	}
	if len(accepted) > 0 {
		f.ctx.Send(from, &AcceptSubscribe{Stripes: accepted, FromConsensus: false})
	}
	if len(refused) > 0 {
		f.ctx.Send(from, &RejectSubscribe{Stripes: refused})
	}
	f.backfill(from, fresh)
	if unheld {
		f.runSubscription()
	}
}

func (f *FullNode) onAcceptSubscribe(from wire.NodeID, m *AcceptSubscribe) {
	became := false
	for _, s := range m.Stripes {
		if int(s) >= len(f.links) || !f.links[s].pendingAt(from) {
			continue
		}
		l := &f.links[s]
		l.pending = wire.NoNode
		if l.sender != from {
			if l.sender != wire.NoNode {
				f.ctx.Send(l.sender, &Unsubscribe{Stripes: []uint8{s}})
			}
			l.heard = heardAt{f.ctx.Now(), f.opened} // a new sender gets a full silence grace
		}
		l.sender = from
		if m.FromConsensus && !f.isSpare(s) {
			l.direct = true
			became = true
		}
	}
	if became && !f.isRelayer {
		f.isRelayer = true
	}
	if became {
		f.broadcastAlive()
	}
}

func (f *FullNode) onRejectSubscribe(from wire.NodeID, m *RejectSubscribe) {
	// Try the suggested children, else fall back to consensus.
	for _, s := range m.Stripes {
		if int(s) >= len(f.links) || !f.links[s].pendingAt(from) {
			continue
		}
		f.links[s].pending = wire.NoNode
		if len(m.Children) > 0 {
			child := m.Children[int(s)%len(m.Children)]
			if child != f.cfg.Self && !f.isQuarantined(child) {
				f.sendSubscribe(child, []uint8{s})
				continue
			}
		}
		f.sendSubscribe(wire.NodeID(s), []uint8{s})
	}
}

func (f *FullNode) onUnsubscribe(from wire.NodeID, m *Unsubscribe) {
	for _, s := range m.Stripes {
		if int(s) < len(f.links) {
			f.setSubscriber(s, from, false)
		}
	}
}

func (f *FullNode) onGetRelayers(from wire.NodeID, m *GetRelayers) {
	if int(m.Zone) != f.cfg.Zone {
		return
	}
	info := &RelayersInfo{Zone: m.Zone}
	ids := make([]wire.NodeID, 0, len(f.zoneRelayers))
	for id := range f.zoneRelayers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if r := f.zoneRelayers[id]; r.active() {
			info.Relayers = append(info.Relayers, RelayerEntry{Node: id, JoinSeq: r.joinSeq, Stripes: r.stripes})
		}
	}
	if f.isRelayer {
		info.Relayers = append(info.Relayers, RelayerEntry{
			Node: f.cfg.Self, JoinSeq: f.cfg.JoinSeq, Stripes: f.RelayedStripes(),
		})
	}
	f.ctx.Send(from, info)
}

func (f *FullNode) onRelayersInfo(from wire.NodeID, m *RelayersInfo) {
	for _, r := range m.Relayers {
		if r.Node == f.cfg.Self || f.isQuarantined(r.Node) {
			continue
		}
		// Bootstrap info carries no version; only fill gaps so it never
		// rolls back fresher relayerAlive state.
		if _, known := f.zoneRelayers[r.Node]; known {
			continue
		}
		f.zoneRelayers[r.Node] = &relayerInfo{
			joinSeq: r.JoinSeq, stripes: r.Stripes, lastAlive: f.ctx.Now(),
		}
	}
}

// onRelayerAlive is Algorithm 2.
func (f *FullNode) onRelayerAlive(from wire.NodeID, m *RelayerAlive) {
	if int(m.Zone) != f.cfg.Zone || m.Relayer == f.cfg.Self {
		return
	}
	if f.isQuarantined(m.Relayer) {
		return // a blacklisted relayer cannot advertise itself back into the tree
	}
	prev := f.zoneRelayers[m.Relayer]
	if prev != nil && m.Version <= prev.version {
		// Stale or duplicate announcement: refresh liveness, never
		// re-forward (conflicting copies would otherwise circulate and
		// toggle state forever).
		if m.Version == prev.version {
			prev.lastAlive = f.ctx.Now()
		}
		return
	}
	// Fresh version: store it (demotions keep a tombstone entry so the
	// version stays monotonic).
	f.zoneRelayers[m.Relayer] = &relayerInfo{
		joinSeq: m.JoinSeq, version: m.Version, stripes: m.Stripes,
		lastAlive: f.ctx.Now(),
	}
	changed := prev == nil || !stripesEqual(prev.stripes, m.Stripes)

	if f.isRelayer && len(m.Stripes) > 0 {
		// Lines 7-13: overlap resolution. The paper's intent (Fig. 3(d))
		// is one consensus-direct relayer per stripe per zone; redundant
		// relayers hand shared stripes over and eventually demote. We use
		// a deterministic pairwise rule both sides can evaluate from the
		// announcement alone: for each shared stripe, the relayer with
		// the larger consensus-direct set yields it (join order breaks
		// ties, later yields), so exactly one side acts.
		shared := intersectStripes(f.RelayedStripes(), m.Stripes)
		theirCount := len(m.Stripes)
		yielded := false
		for _, s := range shared {
			myCount := len(f.RelayedStripes())
			if myCount > theirCount || (myCount == theirCount && f.cfg.JoinSeq > m.JoinSeq) {
				f.handOffStripe(s)
				yielded = true
			}
		}
		if yielded {
			f.broadcastAlive()
			f.runSubscription()
		}
		// Lines 14-18: if our sender for a stripe no longer relays it, and
		// this relayer does, resubscribe to it.
		for _, s := range m.Stripes {
			if int(s) >= len(f.links) {
				continue
			}
			l := &f.links[s]
			if l.sender == wire.NoNode || l.sender == m.Relayer || l.direct {
				continue
			}
			if info, known := f.zoneRelayers[l.sender]; known && info.active() && !containsStripe(info.stripes, s) &&
				!l.pendingAt(m.Relayer) {
				f.resubscribe(s, m.Relayer)
			}
		}
	}

	// Line 20: forward fresh information to zone neighbors.
	if changed {
		for _, p := range f.cfg.ZonePeers {
			if p != from && p != m.Relayer {
				f.ctx.Send(p, m)
			}
		}
	}

	// Lines 21-23: demote ourselves if we relay nothing anymore.
	if f.isRelayer && len(f.RelayedStripes()) == 0 {
		f.demote()
	}
}

// handOffStripe stops taking a stripe from its consensus node (Alg. 2's
// redundancy squeeze); Algorithm 1 then takes it from the relayer that
// keeps it if this node still wants it.
func (f *FullNode) handOffStripe(s uint8) {
	l := &f.links[s]
	if l.direct {
		l.direct = false
		f.ctx.Send(wire.NodeID(s), &Unsubscribe{Stripes: []uint8{s}})
	}
	l.sender = wire.NoNode
}

// resubscribe moves one stripe to a new sender.
func (f *FullNode) resubscribe(s uint8, to wire.NodeID) {
	if l := &f.links[s]; l.sender != wire.NoNode {
		f.ctx.Send(l.sender, &Unsubscribe{Stripes: []uint8{s}})
		l.sender = wire.NoNode
	}
	f.sendSubscribe(to, []uint8{s})
}

func (f *FullNode) demote() {
	f.isRelayer = false
	for s := range f.links {
		if l := &f.links[s]; l.direct {
			f.ctx.Send(wire.NodeID(s), &Unsubscribe{Stripes: []uint8{uint8(s)}})
			l.direct = false
		}
	}
	f.aliveVersion++
	alive := &RelayerAlive{
		Relayer: f.cfg.Self, JoinSeq: f.cfg.JoinSeq,
		Version: f.aliveVersion, Zone: uint32(f.cfg.Zone),
	}
	for _, p := range f.cfg.ZonePeers {
		f.ctx.Send(p, alive)
	}
}

func (f *FullNode) broadcastAlive() {
	if !f.isRelayer {
		return
	}
	f.aliveVersion++
	alive := &RelayerAlive{
		Relayer: f.cfg.Self, JoinSeq: f.cfg.JoinSeq, Version: f.aliveVersion,
		Stripes: f.RelayedStripes(), Zone: uint32(f.cfg.Zone),
	}
	for _, p := range f.cfg.ZonePeers {
		f.ctx.Send(p, alive)
	}
}

// armAlive runs the periodic relayer maintenance (§IV-E): broadcast
// relayerAlive, expire dead relayers, and promote ourselves when the zone
// has fewer than n_c relayers.
func (f *FullNode) armAlive() {
	f.aliveTimer = f.ctx.After(f.cfg.AliveInterval, func() {
		now := f.ctx.Now()
		for id, info := range f.zoneRelayers {
			if now.Sub(info.lastAlive) > 6*f.cfg.AliveInterval {
				delete(f.zoneRelayers, id)
			}
		}
		f.broadcastAlive()
		f.sweepDataPlane()
		f.tryCompleteBlocks() // restates the needs of blocks still waiting
		count := 0
		for _, info := range f.zoneRelayers {
			if info.active() {
				count++
			}
		}
		if f.isRelayer {
			count++
		}
		if count < f.cfg.NC && !f.isRelayer {
			f.promote()
		}
		// Subscription repair: the node tops its received set up to n_c − f
		// through Algorithm 1, or trims what it holds beyond that.
		f.runSubscription()
		f.trimSubscriptions()
		f.armAlive()
	})
}

// promote makes this node a relayer when its zone has fewer than n_c
// (§IV-E): it takes every index no live relayer announces or, when all
// are covered, one index of the relayer announcing the most — the overlap
// rule (onRelayerAlive) has that relayer yield it, so each promotion leaves
// the zone one relayer nearer to n_c relayers of one index each.
func (f *FullNode) promote() {
	covered := make([]bool, f.cfg.NC)
	var most wire.NodeID = wire.NoNode
	for id, info := range f.zoneRelayers {
		for _, s := range info.stripes {
			if int(s) < f.cfg.NC {
				covered[s] = true
			}
		}
		if m := f.zoneRelayers[most]; !f.isQuarantined(id) && (m == nil || len(info.stripes) > len(m.stripes) ||
			len(info.stripes) == len(m.stripes) && info.joinSeq > m.joinSeq) {
			most = id
		}
	}
	var take []uint8
	for s := 0; s < f.cfg.NC; s++ {
		if !covered[s] {
			take = append(take, uint8(s))
		}
	}
	if len(take) == 0 && most != wire.NoNode && len(f.zoneRelayers[most].stripes) > 1 {
		for k := 0; k < f.cfg.NC && len(take) == 0; k++ {
			if s := f.rotation(k); containsStripe(f.zoneRelayers[most].stripes, s) {
				take = append(take, s)
			}
		}
	}
	for _, s := range take {
		if !f.links[s].pendingAt(wire.NodeID(s)) {
			f.sendSubscribe(wire.NodeID(s), []uint8{s})
		}
	}
}

// armHeartbeat runs the lease rule on this node's zone links (§IV-E): a
// heartbeat to every sender and subscriber each heartbeatInterval, and a
// sender or subscriber silent for leaseAfter is dropped — a dead sender's
// index is then asked for again, and a crashed child stops costing a
// subscription slot and forwarding bandwidth.
func (f *FullNode) armHeartbeat() {
	f.heartbeatTimer = f.ctx.After(heartbeatInterval, func() {
		hb := &Heartbeat{}
		targets := slices.Clone(f.subscribers)
		for _, l := range f.links {
			if i, found := slices.BinarySearch(targets, l.sender); l.sender != wire.NoNode && !found {
				targets = slices.Insert(targets, i, l.sender)
			}
		}
		for _, id := range targets {
			f.ctx.Send(id, hb)
		}
		now := f.ctx.Now()
		for s := range f.links {
			l := &f.links[s]
			if f.lapsed(l.sender, now) {
				l.sender, l.direct = wire.NoNode, false
			}
			for i := len(l.subs) - 1; i >= 0; i-- {
				if id := l.subs[i]; f.lapsed(id, now) {
					f.setSubscriber(uint8(s), id, false)
				}
			}
		}
		f.armHeartbeat()
	})
}

// lapsed reports whether peer id, once heard from, has been silent for
// longer than a lease.
func (f *FullNode) lapsed(id wire.NodeID, now time.Time) bool {
	seen, ok := f.lastSeen[id]
	return ok && now.Sub(seen) > leaseAfter
}

// setSubscriber makes id a subscriber of index s (on) or not, and reports
// whether that changed anything. It is the one place subscribers change, so
// subCount and the union view f.subscribers are kept here.
func (f *FullNode) setSubscriber(s uint8, id wire.NodeID, on bool) bool {
	l := &f.links[s]
	i, found := slices.BinarySearch(l.subs, id)
	if found == on {
		return false
	}
	if on {
		l.subs = slices.Insert(l.subs, i, id)
		f.subCount++
	} else {
		l.subs = slices.Delete(l.subs, i, i+1)
		f.subCount--
	}
	j, listed := slices.BinarySearch(f.subscribers, id)
	switch {
	case on && !listed:
		f.subscribers = slices.Insert(f.subscribers, j, id)
	case !on && !slices.ContainsFunc(f.links, func(l link) bool { return slices.Contains(l.subs, id) }):
		f.subscribers = slices.Delete(f.subscribers, j, j+1)
	}
	return true
}

// Leave announces departure and hands relayer duty to the earliest
// subscriber (§IV-E).
func (f *FullNode) Leave() {
	if f.ctx == nil {
		return
	}
	msg := &Leave{IsRelayer: f.isRelayer}
	if f.isRelayer {
		if len(f.subscribers) > 0 {
			f.ctx.Send(f.subscribers[0], msg)
		}
		return
	}
	for _, id := range f.subscribers {
		f.ctx.Send(id, msg)
	}
}

func (f *FullNode) onLeave(from wire.NodeID, m *Leave) {
	// Our sender is going away: resubscribe its stripes. If it was a
	// relayer, we take its place by going straight to consensus (§IV-E).
	for s := range f.links {
		if l := &f.links[s]; l.sender == from {
			l.sender, l.direct = wire.NoNode, false
			if m.IsRelayer {
				f.sendSubscribe(wire.NodeID(s), []uint8{uint8(s)})
			}
		}
	}
	delete(f.zoneRelayers, from)
	if !m.IsRelayer {
		f.runSubscription()
	}
}

// --- helpers ---

func stripesEqual(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intersectStripes(a, b []uint8) []uint8 {
	set := make(map[uint8]bool, len(b))
	for _, s := range b {
		set[s] = true
	}
	var out []uint8
	for _, s := range a {
		if set[s] {
			out = append(out, s)
		}
	}
	return out
}

func containsStripe(ss []uint8, s uint8) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
