package harness

import (
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/multizone"
	"predis/internal/types"
	"predis/internal/wire"
)

// blockSource is a consensus node reduced to its data plane for the
// propagation experiment (Fig. 8): it produces bundles on demand,
// exchanges them with the other sources (as Predis consensus nodes do),
// stripes every stored bundle to its Multi-Zone subscribers, and publishes
// Predis blocks over the relayer tree. Consensus ordering itself is not
// exercised — Fig. 8 measures only the distribution layer, and the paper
// does the same by fixing the block production schedule.
type blockSourceConfig struct {
	self       wire.NodeID
	nc, f      int
	suite      *crypto.SignerSuite
	striper    *multizone.Striper
	bundleSize int
}

type blockSource struct {
	cfg  blockSourceConfig
	ctx  env.Context
	mp   *core.Mempool
	dist *multizone.Distributor

	peers []wire.NodeID

	txSeq uint64
}

var _ env.Handler = (*blockSource)(nil)

func newBlockSource(cfg blockSourceConfig) (*blockSource, error) {
	mp, err := core.NewMempool(core.Params{
		NC: cfg.nc, F: cfg.f, BundleSize: cfg.bundleSize,
		Signer:        cfg.suite.Signer(int(cfg.self)),
		KeepConfirmed: 64,
	})
	if err != nil {
		return nil, err
	}
	s := &blockSource{
		cfg:  cfg,
		mp:   mp,
		dist: multizone.NewDistributor(cfg.self, cfg.striper),
	}
	for i := 0; i < cfg.nc; i++ {
		if wire.NodeID(i) != cfg.self {
			s.peers = append(s.peers, wire.NodeID(i))
		}
	}
	mp.SetOnLink(s.dist.OnBundleStored)
	return s, nil
}

// Start implements env.Handler.
func (s *blockSource) Start(ctx env.Context) {
	s.ctx = ctx
	s.dist.Start(ctx)
}

// Receive implements env.Handler.
func (s *blockSource) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *core.BundleMsg:
		if _, _, _, err := s.mp.AddBundle(msg.Bundle, true); err != nil {
			s.ctx.Logf("source: bundle rejected: %v", err)
		}
	case *core.BundleRequest:
		core.ServeBundles(s.ctx, s.mp, from, msg)
	case *multizone.ZoneBlock:
		s.commit(msg.Block)
		s.dist.OnBlockCommit(msg.Block)
	default:
		s.dist.Receive(from, m)
	}
}

// ProduceBundle packs one synthetic bundle, stores it (which stripes it to
// subscribers), and sends it to the other sources.
func (s *blockSource) ProduceBundle() {
	txs := make([]*types.Transaction, s.cfg.bundleSize)
	for i := range txs {
		s.txSeq++
		txs[i] = types.NewTransaction(9000+s.cfg.self, s.txSeq, types.DefaultTxSize,
			time.Duration(s.txSeq))
	}
	tips := s.mp.Tips()
	tips[s.cfg.self]++
	parent := s.mp.TipHeader(s.cfg.self)
	root := s.dist.StripeRoot(txs)
	b := core.PackBundleStriped(s.mp.Params().Signer, s.cfg.self, parent, txs, tips, root)
	if _, _, _, err := s.mp.AddBundle(b, false); err != nil {
		s.ctx.Logf("source: own bundle rejected: %v", err)
		return
	}
	env.Multicast(s.ctx, s.peers, &core.BundleMsg{Bundle: b})
}

// BuildBlock cuts the chains above the committed head and signs a Predis
// block (leader only).
func (s *blockSource) BuildBlock() (*core.PredisBlock, bool) {
	height, hash := s.mp.Head()
	p := s.mp.Params()
	return s.mp.BuildPredisBlock(height+1, hash, s.mp.Confirmed(), s.cfg.self, p.NC-p.F, false)
}

// PublishBlock applies the block locally, forwards it to the other
// sources, and pushes it to this source's subscribers.
func (s *blockSource) PublishBlock(blk *core.PredisBlock) {
	s.commit(blk)
	env.Multicast(s.ctx, s.peers, &multizone.ZoneBlock{Block: blk})
	s.dist.OnBlockCommit(blk)
}

func (s *blockSource) commit(blk *core.PredisBlock) {
	if _, err := s.mp.Commit(blk); err != nil {
		s.ctx.Logf("source: commit refused: %v", err)
	}
}
