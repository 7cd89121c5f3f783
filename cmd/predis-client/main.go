// Command predis-client is a TCP load generator: it runs the simulator's
// open-loop workload.Client, with a workload.Collector, against a running
// predis-node deployment over the rtnet runtime, and reports throughput and
// latency (submit → f+1 matching replies).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"predis/internal/consensus"
	"predis/internal/node"
	"predis/internal/rtnet"
	"predis/internal/wire"
	"predis/internal/workload"
)

// drain is how long the client keeps collecting replies after it stops
// generating.
const drain = 2 * time.Second

var policies = map[string]workload.TargetPolicy{
	"roundrobin": workload.RoundRobin, "first": workload.FirstOnly, "broadcast": workload.Broadcast,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run returns the exit status: 2 for a bad command line, 1 when the client
// cannot start.
func run(args []string) int {
	fs := flag.NewFlagSet("predis-client", flag.ContinueOnError)
	var (
		id       = fs.Uint("id", 1000, "client node id (distinct from consensus ids)")
		targets  = fs.String("targets", "", "comma-separated id=host:port of the consensus nodes and of this client, where it listens for replies")
		rate     = fs.Float64("rate", 200, "offered load, tx/s")
		txSize   = fs.Uint("txsize", 512, "transaction size in bytes")
		duration = fs.Duration("duration", 10*time.Second, "generation duration")
		policy   = fs.String("policy", "roundrobin", "target policy: roundrobin|first|broadcast")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	self := wire.NodeID(*id)
	peers, ids, err := parseTargets(*targets, self)
	pol, ok := policies[*policy]
	if err == nil && !ok {
		err = fmt.Errorf("unknown policy %q", *policy)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-client:", err)
		return 2
	}

	node.RegisterAllMessages()
	start := time.Now()
	col := workload.NewCollector(start, start.Add(*duration+drain))
	f := consensus.FaultBound(len(ids))
	cl := workload.NewClient(workload.ClientConfig{
		Self: self, Targets: ids, Policy: pol,
		Rate: *rate, TxSize: uint32(*txSize), F: f,
		Epoch: start, GenStart: start, GenStop: start.Add(*duration),
		Collector: col,
	})
	rt, err := rtnet.New(rtnet.Config{Self: self, Listen: peers[self], Peers: peers, LogWriter: os.Stderr}, cl)
	if err == nil {
		err = rt.Start()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-client:", err)
		return 1
	}
	fmt.Printf("client %d: %.0f tx/s for %v against %d nodes (f=%d)\n", *id, *rate, *duration, len(ids), f)
	time.Sleep(*duration + drain)
	rt.Close() // no callback runs after Close, so the collector is ours

	submitted, confirmed, _, _ := col.Counts()
	lat := col.Latency()
	fmt.Printf("submitted=%d confirmed=%d throughput=%.0f tx/s\n",
		submitted, confirmed, float64(confirmed)/duration.Seconds())
	fmt.Printf("latency: mean=%v p50=%v p90=%v p99=%v\n", lat.Mean, lat.P50, lat.P90, lat.P99)
	return 0
}

// parseTargets reads the id=host:port list: every entry but self's is a
// consensus node, in the order given, and self's is the reply address.
func parseTargets(s string, self wire.NodeID) (map[wire.NodeID]string, []wire.NodeID, error) {
	peers := make(map[wire.NodeID]string)
	var ids []wire.NodeID
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		tid, err := strconv.ParseUint(kv[0], 10, 32)
		if len(kv) != 2 || err != nil {
			return nil, nil, fmt.Errorf("bad target %q (want id=host:port)", part)
		}
		peers[wire.NodeID(tid)] = kv[1]
		if wire.NodeID(tid) != self {
			ids = append(ids, wire.NodeID(tid))
		}
	}
	if len(ids) == 0 || peers[self] == "" {
		return nil, nil, fmt.Errorf("-targets must list the consensus nodes and this client (%d), where it listens for replies", self)
	}
	return peers, ids, nil
}
