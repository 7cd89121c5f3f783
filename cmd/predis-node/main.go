// Command predis-node runs one consensus node over real TCP: the same
// node assembly the simulator tests exercise, hosted by the rtnet runtime.
//
// A 4-node local deployment:
//
//	predis-node -id 0 -n 4 -listen :7000 -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	predis-node -id 1 -n 4 -listen :7001 -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	predis-node -id 2 -n 4 -listen :7002 -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	predis-node -id 3 -n 4 -listen :7003 -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	predis-client -targets 0=:7000,1=:7001,2=:7002,3=:7003 -rate 500 -duration 10s
//
// Keys are derived deterministically from -keyseed so all nodes agree on
// the membership; use real key distribution in production.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"predis/internal/crypto"
	"predis/internal/node"
	"predis/internal/rtnet"
	"predis/internal/types"
	"predis/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id      = flag.Uint("id", 0, "this node's id (0..n-1)")
		n       = flag.Int("n", 4, "number of consensus nodes")
		listen  = flag.String("listen", ":7000", "listen address")
		peers   = flag.String("peers", "", "comma-separated id=host:port list for all nodes")
		mode    = flag.String("mode", "predis", "data production: predis|baseline|narwhal|stratus")
		engine  = flag.String("engine", "pbft", "consensus engine: pbft|hotstuff")
		bundle  = flag.Int("bundle", 50, "bundle/microblock size (txs)")
		batch   = flag.Int("batch", 800, "baseline batch size (txs)")
		keyseed = flag.Uint64("keyseed", 42, "deterministic key suite seed (demo only)")
		quiet   = flag.Bool("quiet", false, "suppress per-block commit logs")
	)
	flag.Parse()

	peerMap, err := parsePeers(*peers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 2
	}
	m, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 2
	}
	ek, err := parseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 2
	}

	node.RegisterAllMessages()
	suite := crypto.NewEd25519Suite(*n, *keyseed)
	f := (*n - 1) / 3

	var committedTotal uint64
	nd, err := node.New(node.Config{
		Mode:           m,
		Engine:         ek,
		NC:             *n,
		F:              f,
		Self:           wire.NodeID(*id),
		Signer:         suite.Signer(int(*id)),
		BatchSize:      *batch,
		BundleSize:     *bundle,
		BundleInterval: 20 * time.Millisecond,
		ViewTimeout:    2 * time.Second,
		ReplyToClients: true,
		OnCommit: func(height uint64, txs []*types.Transaction) {
			committedTotal += uint64(len(txs))
			if !*quiet {
				fmt.Printf("node %d: block %d committed, %d txs (total %d)\n",
					*id, height, len(txs), committedTotal)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 1
	}

	rt, err := rtnet.New(rtnet.Config{
		Self:      wire.NodeID(*id),
		Listen:    *listen,
		Peers:     peerMap,
		LogWriter: os.Stderr,
	}, nd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 1
	}
	if err := rt.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 1
	}
	defer rt.Close()
	fmt.Printf("node %d (%s/%s) listening on %s\n", *id, *mode, *engine, rt.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("node %d: shutting down after %d committed txs\n", *id, committedTotal)
	return 0
}

func parsePeers(s string) (map[wire.NodeID]string, error) {
	out := make(map[wire.NodeID]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		out[wire.NodeID(id)] = kv[1]
	}
	return out, nil
}

func parseMode(s string) (node.Mode, error) {
	switch s {
	case "predis":
		return node.ModePredis, nil
	case "baseline":
		return node.ModeBaseline, nil
	case "narwhal":
		return node.ModeNarwhal, nil
	case "stratus":
		return node.ModeStratus, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func parseEngine(s string) (node.EngineKind, error) {
	switch s {
	case "pbft":
		return node.EnginePBFT, nil
	case "hotstuff":
		return node.EngineHotStuff, nil
	default:
		return 0, fmt.Errorf("unknown engine %q", s)
	}
}
