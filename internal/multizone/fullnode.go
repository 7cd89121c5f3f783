package multizone

import (
	"math/bits"
	"slices"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/ledger"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// FullNodeConfig parameterizes a Multi-Zone full node (relayer or ordinary
// node; the role follows from the zone's membership, see relayerOf).
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
	// ZonePeers are the other full nodes of this zone: the members the
	// placement rule (relayerOf) orders. Every builder numbers a zone's
	// members in join order, so ascending NodeID is join order.
	ZonePeers []wire.NodeID
	// BackupPeers are nodes in neighboring zones for digest exchange
	// (§IV-F).
	BackupPeers []wire.NodeID
	// MaxSubscribers caps total subscriptions this node accepts (Fig. 8
	// uses 24 to equalize bandwidth with the random topology).
	MaxSubscribers int
	// AliveInterval paces relayer beacons and placement checks. (Zone
	// links are leased on a fixed clock: see heartbeatInterval.)
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
	pending wire.NodeID   // where a subscribe for it is outstanding; NoNode: nowhere
	direct  bool          // taken straight from its consensus node: one of our relayed stripes
	capped  wire.NodeID   // the relayer that referred us elsewhere for want of capacity; NoNode: none
	heard   heardAt       // last traffic on it from its sender (see heard)
	asked   time.Time     // when it was last asked for again while silent
	subs    []wire.NodeID // who we forward it to, ascending
}

// newLinks returns an empty table of nc links.
func newLinks(nc int) []link {
	links := make([]link, nc)
	for s := range links {
		links[s].sender, links[s].pending, links[s].capped = wire.NoNode, wire.NoNode, wire.NoNode
	}
	return links
}

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
	slot     int // index in FullNode.inflight while known and not done
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
	links       []link
	subscribers []wire.NodeID // every subscriber of any index, ascending
	subCount    int           // total subscriptions accepted
	// Placement (see relayerOf): the zone's members, this node included,
	// in join order; when each member last sent a relayer beacon; and when
	// a subscribe to it went unanswered.
	members []wire.NodeID
	beacons map[wire.NodeID]time.Time
	down    map[wire.NodeID]time.Time

	// Data plane.
	partials map[crypto.Hash]*partialBundle // by header hash
	// freePartials recycles entries that left partials (reset, stripes
	// slice kept); headerless[i] counts producer i's header-less entries.
	freePartials []*partialBundle
	headerless   []int
	// inflight holds the known partials that are not done, in no
	// particular order: the ones the silence rule asks about.
	inflight []*partialBundle
	// Block plane; the committed head is the mempool's.
	seenBlocks map[crypto.Hash]uint64 // block hash → height, for blocks above the head
	pendBlocks []*core.PredisBlock    // completable once bundles arrive, in arrival order
	blockTxs   []*types.Transaction   // the executed block's transactions, overwritten per block
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
		cfg:         c,
		mp:          mp,
		retry:       env.DefaultBackoff(c.AliveInterval),
		links:       newLinks(c.NC),
		members:     append([]wire.NodeID{c.Self}, c.ZonePeers...),
		beacons:     make(map[wire.NodeID]time.Time),
		down:        make(map[wire.NodeID]time.Time),
		partials:    make(map[crypto.Hash]*partialBundle),
		headerless:  make([]int, c.NC),
		seenBlocks:  make(map[crypto.Hash]uint64),
		lastSeen:    make(map[wire.NodeID]time.Time),
		offenses:    make(map[wire.NodeID]int),
		quarantined: make(map[wire.NodeID]time.Time),
	}
	slices.Sort(f.members)
	f.fetch = core.NewFetchPlane(mp, f.retry, f.holders)
	f.catchup = core.NewCatchup(mp, f.retry, f.catchupOwner())
	return f, nil
}

// IsRelayer reports whether this node currently takes stripes straight
// from consensus nodes.
func (f *FullNode) IsRelayer() bool {
	return slices.ContainsFunc(f.links, func(l link) bool { return l.direct })
}

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

// Senders returns who sends this node each stripe index, NoNode for an
// index it does not receive.
func (f *FullNode) Senders() []wire.NodeID {
	out := make([]wire.NodeID, len(f.links))
	for s, l := range f.links {
		out[s] = l.sender
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

// Start implements env.Handler: apply the placement rule, then keep it.
func (f *FullNode) Start(ctx env.Context) {
	f.ctx = ctx
	f.fetch.Start(ctx)
	f.catchup.Start(ctx)
	f.place()
	f.armAlive()
	f.armHeartbeat()
	if f.cfg.DigestInterval > 0 && len(f.cfg.BackupPeers) > 0 {
		f.armDigest()
	}
}

// relayerOf returns the member that relays index s: the first live member
// of s's candidate list. In a zone of at least n_c members the list is
// the members at join positions s, s+n_c, s+2n_c, …, then the remaining
// members in ring order from s+1, so each index has its own relayer; a
// smaller zone starts it at position ⌊s·M/n_c⌋ of its M members, which
// gives each member a contiguous run of indices (see headerCarrier). A
// failure moves only the failed member's indices. This node is always
// live in its own view, so some member always relays s.
func (f *FullNode) relayerOf(s uint8) wire.NodeID {
	m, nc := len(f.members), f.cfg.NC
	home := int(s)
	if m < nc {
		home = int(s) * m / nc
	}
	now := f.ctx.Now()
	for p := home; p < m; p += nc {
		if id := f.members[p]; f.live(id, now) {
			return id
		}
	}
	for k := 1; k < m; k++ {
		if id := f.members[(home+k)%m]; f.live(id, now) {
			return id
		}
	}
	return f.cfg.Self
}

// upstream returns whom this node takes index s from by the placement
// rule: s's relayer, or consensus node s when that relayer is this node.
func (f *FullNode) upstream(s uint8) wire.NodeID {
	if r := f.relayerOf(s); r != f.cfg.Self {
		return r
	}
	return wire.NodeID(s)
}

// live reports whether zone member id may relay, from the signals this node
// has anyway: it is not quarantined, its lease has not lapsed, it has been
// heard from since a subscribe to it last went unanswered for
// resubscribeAfter (see sendSubscribe), and its relayer beacon, once it
// sent one, is at most six alive intervals old. A member never heard from
// is live.
func (f *FullNode) live(id wire.NodeID, now time.Time) bool {
	if id == f.cfg.Self {
		return true
	}
	if f.isQuarantined(id) || f.lapsed(id, now) {
		return false
	}
	if at, ok := f.down[id]; ok && !f.lastSeen[id].After(at) {
		return false
	}
	at, ok := f.beacons[id]
	return !ok || now.Sub(at) <= 6*f.cfg.AliveInterval
}

// relays reports whether the placement rule makes this node a relayer.
func (f *FullNode) relays() bool {
	for s := range f.links {
		if f.relayerOf(uint8(s)) == f.cfg.Self {
			return true
		}
	}
	return false
}

// place applies the placement rule. Every index this node relays is taken
// from its consensus node, announced by a beacon; every other index it
// holds moves to its relayer, unless that relayer referred it elsewhere
// for want of capacity (a spare stays where the silence rule put it); and
// every index still wanted (see wanted) is subscribed from its relayer.
// So no node is more than two hops below consensus.
func (f *FullNode) place() {
	took := false
	for s := range f.links {
		si, l := uint8(s), &f.links[s]
		to := f.upstream(si)
		relay := to == wire.NodeID(s)
		if !relay && (!f.held(si) || to == l.capped || f.isSpare(si)) {
			continue
		}
		if l.sender != to && l.pending == wire.NoNode && !f.isQuarantined(to) {
			f.sendSubscribe(to, []uint8{si})
			took = took || relay
		}
	}
	if took {
		f.beacon()
	}
	for _, s := range f.wanted() {
		if to := f.upstream(s); !f.isQuarantined(to) {
			f.sendSubscribe(to, []uint8{s})
		}
	}
}

// beacon sends this node's RelayerAlive to every zone peer.
func (f *FullNode) beacon() {
	alive := &RelayerAlive{Relayer: f.cfg.Self, Zone: uint32(f.cfg.Zone)}
	for _, p := range f.cfg.ZonePeers {
		f.ctx.Send(p, alive)
	}
}

// wanted lists the indices to subscribe now. Any n_c − f stripes rebuild a
// bundle (§IV-D), so a node receives n_c − f indices: those it relays or
// forwards, then the fewest others, in a rotation that starts at JoinSeq,
// so nodes skip different indices. A spare (spare.go) is not counted, but
// while one flows it takes the place of an index that left before anything
// new is asked for.
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
	for k := 0; k < f.cfg.NC && short > 0; k++ {
		if s := f.rotation(k); !f.held(s) && !slices.Contains(out, s) {
			out = append(out, s)
			short--
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
// neither relays nor forwards, last in its rotation first: a relay duty
// that moved away, a forwarding duty or a spare turned regular can leave it
// one over.
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

// sendSubscribe asks to for the given indices. If the subscribe goes
// unanswered for resubscribeAfter, to counts as down until it is heard
// from again, and the placement is applied afresh.
func (f *FullNode) sendSubscribe(to wire.NodeID, stripes []uint8) {
	for _, s := range stripes {
		f.links[s].pending = to
	}
	f.ctx.Send(to, &Subscribe{Stripes: stripes})
	f.ctx.After(f.resubscribeAfter(), func() {
		stale := false
		for _, s := range stripes {
			if l := &f.links[s]; l.pending == to {
				l.pending = wire.NoNode
				stale = true
			}
		}
		if stale {
			f.down[to] = f.ctx.Now()
			f.place()
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
	case *core.PredisBlock:
		f.onBlock(from, msg)
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
	case *Leave:
		f.onLeave(from)
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
			fresh = f.storeBundle(b) || fresh
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
		// Refer the requester to subscribers of what it asks for (§IV-D).
		var children []wire.NodeID
		if len(m.Stripes) > 0 && int(m.Stripes[0]) < f.cfg.NC {
			subs := f.links[m.Stripes[0]].subs
			children = slices.Clone(subs[:min(len(subs), 4)])
		}
		f.ctx.Send(from, &RejectSubscribe{Stripes: m.Stripes, Children: children})
		return
	}
	var accepted, fresh, refused []uint8
	unheld := false
	for _, s := range m.Stripes {
		if int(s) >= f.cfg.NC {
			continue
		}
		if l := &f.links[s]; l.sender == from || l.pending == from {
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
		f.place()
	}
}

func (f *FullNode) onAcceptSubscribe(from wire.NodeID, m *AcceptSubscribe) {
	for _, s := range m.Stripes {
		if int(s) >= len(f.links) || f.links[s].pending != from {
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
		l.direct = m.FromConsensus && !f.isSpare(s)
	}
}

// onRejectSubscribe follows a relayer's referral to one of its subscribers
// when it is at capacity. An index refused without a referral waits for
// the next placement check.
func (f *FullNode) onRejectSubscribe(from wire.NodeID, m *RejectSubscribe) {
	for _, s := range m.Stripes {
		if int(s) >= len(f.links) || f.links[s].pending != from {
			continue
		}
		l := &f.links[s]
		l.pending = wire.NoNode
		if len(m.Children) > 0 {
			child := m.Children[int(s)%len(m.Children)]
			if child != f.cfg.Self && !f.isQuarantined(child) {
				l.capped = from
				f.sendSubscribe(child, []uint8{s})
			}
		}
	}
}

func (f *FullNode) onUnsubscribe(from wire.NodeID, m *Unsubscribe) {
	for _, s := range m.Stripes {
		if int(s) < len(f.links) {
			f.setSubscriber(s, from, false)
		}
	}
}

// onRelayerAlive takes a zone peer's beacon as proof that it is alive
// (Alg. 2). The first beacon from a member also repeats the subscribes
// this node left pending there: they may have reached it before it
// joined. Either way the placement is applied afresh.
func (f *FullNode) onRelayerAlive(from wire.NodeID, m *RelayerAlive) {
	if int(m.Zone) != f.cfg.Zone || m.Relayer != from {
		return
	}
	if _, known := f.beacons[from]; !known {
		var again []uint8
		for s, l := range f.links {
			if l.pending == from {
				again = append(again, uint8(s))
			}
		}
		if len(again) > 0 {
			f.ctx.Send(from, &Subscribe{Stripes: again})
		}
	}
	f.beacons[from] = f.ctx.Now()
	f.place()
}

// armAlive runs the periodic zone maintenance (§IV-E): beacon while this
// node relays, sweep the data plane, apply the placement rule — a relayer
// whose beacon or lease expired hands its indices to their next candidates
// — and trim what it holds beyond n_c − f.
func (f *FullNode) armAlive() {
	f.aliveTimer = f.ctx.After(f.cfg.AliveInterval, func() {
		if f.relays() {
			f.beacon()
		}
		f.sweepDataPlane()
		f.tryCompleteBlocks() // restates the needs of blocks still waiting
		f.place()
		f.trimSubscriptions()
		f.armAlive()
	})
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

// Leave announces departure to every zone peer (§IV-E).
func (f *FullNode) Leave() {
	if f.ctx == nil {
		return
	}
	for _, p := range f.cfg.ZonePeers {
		f.ctx.Send(p, &Leave{})
	}
}

// onLeave takes a departing peer out of this node's links and out of the
// placement: whatever it relayed or forwarded is asked of its next
// candidate at once. (It counts as down until heard from after this
// message.)
func (f *FullNode) onLeave(from wire.NodeID) {
	f.down[from] = f.ctx.Now()
	for s := range f.links {
		l := &f.links[s]
		if l.sender == from {
			l.sender, l.direct = wire.NoNode, false
		}
		f.setSubscriber(uint8(s), from, false)
	}
	f.place()
}
