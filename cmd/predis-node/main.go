// Command predis-node runs one consensus node over real TCP: the node a
// harness.Deploy of the same system builds in the simulator (its
// Deploy.NodeConfig), with Ed25519 keys, hosted by the rtnet runtime.
//
// A 4-node local deployment and one client; every process gets the same
// -peers list, in which the client's entry is where it takes replies:
//
//	P=0=:7000,1=:7001,2=:7002,3=:7003,1000=127.0.0.1:7100
//	predis-node -id 0 -n 4 -listen :7000 -peers $P &
//	predis-node -id 1 -n 4 -listen :7001 -peers $P &
//	predis-node -id 2 -n 4 -listen :7002 -peers $P &
//	predis-node -id 3 -n 4 -listen :7003 -peers $P &
//	predis-client -id 1000 -targets $P -rate 500 -duration 10s
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

	"predis/internal/crypto"
	"predis/internal/harness"
	"predis/internal/node"
	"predis/internal/rtnet"
	"predis/internal/types"
	"predis/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run returns the exit status: 2 for a bad command line, 1 when the node
// cannot start.
func run(args []string) int {
	fs := flag.NewFlagSet("predis-node", flag.ContinueOnError)
	var (
		id      = fs.Uint("id", 0, "this node's id (0..n-1)")
		n       = fs.Int("n", 4, "number of consensus nodes")
		listen  = fs.String("listen", ":7000", "listen address")
		peers   = fs.String("peers", "", "comma-separated id=host:port list of every node and client")
		system  = fs.String("system", "P-PBFT", "system, by the paper's label: PBFT|P-PBFT|HotStuff|P-HS|Narwhal|Stratus")
		bundle  = fs.Int("bundle", 50, "bundle/microblock size (txs)")
		batch   = fs.Int("batch", 800, "baseline batch size (txs)")
		keyseed = fs.Uint64("keyseed", 42, "deterministic key suite seed (demo only)")
		quiet   = fs.Bool("quiet", false, "suppress per-block commit logs")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	peerMap, err := parsePeers(*peers)
	if err == nil && int(*id) >= *n {
		err = fmt.Errorf("-id %d is not below -n %d", *id, *n)
	}
	var cfg node.Config
	if err == nil {
		d := harness.Deploy{System: harness.System(*system), NC: *n, BundleSize: *bundle, BatchSize: *batch}
		cfg, err = d.NodeConfig(int(*id))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 2
	}
	cfg.Signer = crypto.NewEd25519Suite(*n, *keyseed).Signer(int(*id))
	var committed uint64
	cfg.OnCommit = func(height uint64, txs []*types.Transaction) {
		committed += uint64(len(txs))
		if !*quiet {
			fmt.Printf("node %d: block %d committed, %d txs (total %d)\n", *id, height, len(txs), committed)
		}
	}

	node.RegisterAllMessages()
	nd, err := node.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 1
	}
	rt, err := rtnet.New(rtnet.Config{Self: cfg.Self, Listen: *listen, Peers: peerMap, LogWriter: os.Stderr}, nd)
	if err == nil {
		err = rt.Start()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-node:", err)
		return 1
	}
	fmt.Printf("node %d (%s) listening on %s\n", *id, *system, rt.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	rt.Close()
	fmt.Printf("node %d: shutting down after %d committed txs\n", *id, committed)
	return 0
}

// parsePeers reads an id=host:port list.
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
