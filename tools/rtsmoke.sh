#!/usr/bin/env bash
# rtsmoke.sh BINDIR: the real-socket smoke run. Starts four predis-node
# processes (P-PBFT, Ed25519 keys) on free loopback ports, drives them with
# predis-client at 300 tx/s for 3 s, and fails unless the client reports
# confirmed > 0. Every node is killed when the script exits.
#
#	go build -o bin/ ./cmd/predis-node ./cmd/predis-client && tools/rtsmoke.sh bin
set -euo pipefail
bin=${1:?usage: rtsmoke.sh BINDIR}
logs=$(mktemp -d)
pids=()
cleanup() {
	if ((${#pids[@]})); then
		kill "${pids[@]}" 2>/dev/null || true
		wait "${pids[@]}" 2>/dev/null || true
	fi
	rm -rf "$logs"
}
trap cleanup EXIT
trap "exit 1" INT TERM

# free PORT: the first port from PORT up on which nothing listens.
free() {
	local p=$1
	while (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; do p=$((p + 1)); done
	echo "$p"
}

# Nodes 0..3, then the client (1000), each on its own port; every process
# gets the same list.
port=$((20000 + RANDOM % 20000))
peers=""
for id in 0 1 2 3 1000; do
	port=$(free "$port")
	addr[id]=127.0.0.1:$port
	peers+="${peers:+,}$id=${addr[id]}"
	port=$((port + 1))
done

for id in 0 1 2 3; do
	"$bin/predis-node" -id "$id" -n 4 -listen "${addr[id]}" -peers "$peers" -quiet \
		>"$logs/node$id.log" 2>&1 &
	pids+=($!)
done
sleep 0.5
for i in "${!pids[@]}"; do
	kill -0 "${pids[i]}" 2>/dev/null || { echo "rtsmoke: node $i exited:"; cat "$logs/node$i.log"; exit 1; }
done

out=$(timeout 20 "$bin/predis-client" -id 1000 -targets "$peers" -rate 300 -duration 3s 2>"$logs/client.err") || {
	echo "rtsmoke: predis-client failed:"; cat "$logs/client.err"; exit 1
}
echo "$out"
confirmed=$(sed -n 's/.*confirmed=\([0-9]*\).*/\1/p' <<<"$out")
if [ "${confirmed:-0}" -eq 0 ]; then
	echo "rtsmoke: no transaction confirmed"
	exit 1
fi
