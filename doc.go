// Package predis is a from-scratch Go reproduction of "A Data Flow
// Framework with High Throughput and Low Latency for Permissioned
// Blockchains" (ICDCS 2023): the Predis data production strategy and the
// Multi-Zone data distribution topology, together with every substrate
// their evaluation depends on.
//
// The public surface of the repository is organized as follows.
//
// Protocol cores (deterministic state machines behind env.Context):
//
//   - internal/core — Predis: parallel bundle chains, tip lists, the
//     cutting rule, constant-size Predis blocks, ban lists, bundle fetch.
//   - internal/pbft, internal/hotstuff — the two leader-based BFT engines
//     the paper applies Predis to.
//   - internal/microblock — the Narwhal (RBC) and Stratus (PAB) shared
//     mempool baselines of Fig. 5.
//   - internal/multizone — zones, relayer election, erasure-coded stripe
//     dissemination, block reconstruction (Fig. 7/8).
//   - internal/topology, internal/gossip — the star and random/FEG
//     distribution baselines.
//
// Runtimes:
//
//   - internal/simnet — a deterministic discrete-event simulator with
//     per-NIC bandwidth serialization, latency matrices, and fault
//     injection; every figure is measured here.
//   - internal/rtnet — the same handlers over real TCP (cmd/predis-node
//     and cmd/predis-client, which runs the simulator's workload.Client).
//
// Substrates: internal/wire (binary codec with wire-size accounting),
// internal/crypto (ed25519 + simulation signers), internal/merkle,
// internal/erasure (Reed–Solomon over GF(2^8)), internal/types,
// internal/ledger (committed-block store).
//
// Measurement: internal/workload (open-loop clients, latency collection),
// internal/harness (one experiment per paper figure), internal/stats.
//
// cmd/predis-bench regenerates every figure of the paper's evaluation, and
// the benchmarks in this package (bench_scale_test.go) measure the cost of
// a large client population; see DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package predis
