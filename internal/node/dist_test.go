package node

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
)

// logCtx is a context that logs what a node asks of it into a shared log,
// with the delay of each timer and the type of each message sent.
type logCtx struct {
	log *[]string
	rng *rand.Rand
}

func (c logCtx) ID() wire.NodeID  { return 0 }
func (c logCtx) Now() time.Time   { return simnet.Epoch }
func (c logCtx) Rand() *rand.Rand { return c.rng }
func (c logCtx) Send(to wire.NodeID, m wire.Message) {
	*c.log = append(*c.log, "send "+wire.TypeName(m.Type()))
}
func (c logCtx) After(d time.Duration, _ func()) env.Timer {
	*c.log = append(*c.log, fmt.Sprintf("after %v", d))
	return nopTimer{}
}
func (c logCtx) Logf(format string, args ...any) {
	*c.log = append(*c.log, "log "+fmt.Sprintf(format, args...))
}

type nopTimer struct{}

func (nopTimer) Stop() bool { return false }

// fakeDist is a distributor that logs the calls a node makes of it.
type fakeDist struct{ log *[]string }

func (d fakeDist) Start(env.Context)                           { *d.log = append(*d.log, "dist start") }
func (d fakeDist) OnRestart()                                  { *d.log = append(*d.log, "dist restart") }
func (d fakeDist) StripeRoot([]*types.Transaction) crypto.Hash { return crypto.ZeroHash }
func (d fakeDist) OnBundleStored(*core.Bundle)                 {}
func (d fakeDist) OnBlockCommit(*core.PredisBlock)             {}
func (d fakeDist) Receive(from wire.NodeID, m wire.Message) {
	*d.log = append(*d.log, fmt.Sprintf("dist receive %s from %d", wire.TypeName(m.Type()), from))
}

// zoneMsg is a message in the zone plane's type range.
type zoneMsg struct{}

func (zoneMsg) Type() wire.Type          { return wire.TypeRangeZone + 0xfe }
func (zoneMsg) WireSize() int            { return wire.FrameOverhead }
func (zoneMsg) EncodeBody(*wire.Encoder) {}

// distNode builds a Predis PBFT node 0 of four, with dist when non-nil,
// started on a logging context.
func distNode(t *testing.T, dist *fakeDist, log *[]string) *Node {
	t.Helper()
	RegisterAllMessages()
	cfg := Config{
		Mode: ModePredis, Engine: EnginePBFT, NC: 4, F: 1, Self: 0,
		Signer: crypto.NewSimSuite(4, 7).Signer(0), BundleSize: 50,
		BundleInterval: 20 * time.Millisecond, ViewTimeout: time.Second,
	}
	if dist != nil {
		cfg.Dist = dist
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start(logCtx{log: log, rng: rand.New(rand.NewSource(1))})
	return n
}

// TestNodeDrivesItsDist: the node starts its distributor before the
// application (whose first act is arming its bundle tick), restarts it
// before the engine (whose first act is asking its peers for their status),
// and routes the zone plane to it.
func TestNodeDrivesItsDist(t *testing.T) {
	var log []string
	n := distNode(t, &fakeDist{log: &log}, &log)
	if len(log) < 2 || log[0] != "dist start" || log[1] != "after 20ms" {
		t.Fatalf("start: %q; want the distributor, then the application's bundle tick", log)
	}
	log = log[:0]
	n.OnRestart()
	if len(log) < 2 || log[0] != "dist restart" || log[1] != "send pbft.status_req" {
		t.Fatalf("restart: %q; want the distributor, then the engine's status request", log)
	}
	log = log[:0]
	n.Receive(7, zoneMsg{})
	if want := fmt.Sprintf("dist receive %s from 7", wire.TypeName(zoneMsg{}.Type())); len(log) != 1 || log[0] != want {
		t.Fatalf("a zone-plane message: %q; want %q", log, want)
	}
}

// TestNodeWithoutDistLogsZoneMessages: with no distributor a zone-plane
// message is logged as unroutable.
func TestNodeWithoutDistLogsZoneMessages(t *testing.T) {
	var log []string
	n := distNode(t, nil, &log)
	log = log[:0]
	n.Receive(7, zoneMsg{})
	if want := fmt.Sprintf("log node: unroutable message %s from 7", wire.TypeName(zoneMsg{}.Type())); len(log) != 1 || log[0] != want {
		t.Fatalf("a zone-plane message: %q; want %q", log, want)
	}
}
