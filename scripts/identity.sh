#!/usr/bin/env bash
# identity.sh BASE checks that the working tree produces the same outputs
# as revision BASE:
#
#   scripts/identity.sh HEAD~1        # or: make identity BASE=HEAD~1
#
# It extracts BASE from the local repository with git archive (no
# network), builds bmcast-sim, bmcast-experiments and bmcast-bench from
# both trees, runs the artifact matrix below on each build in turn, and
# prints one line per artifact: "identical" with its hash, or the first
# differing line of each side. It exits 1 when any artifact differs.
#
# Artifacts stream from the programs through FIFOs, are hashed on the
# way and kept gzipped. JSON is split into one record per line on "},{"
# first, so the ~400 MB chaos trace is never held whole and a difference
# names one record.
# The extracted tree, the builds and the artifacts live in one directory
# under TMPDIR, removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
if ! rev=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}"); then
	echo "identity: unknown revision $1" >&2
	exit 2
fi
work=$(mktemp -d "${TMPDIR:-/tmp}/identity.XXXXXX")
trap 'rm -rf "$work"' EXIT
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

mkdir "$work/src"
git -C "$root" archive "$rev" | tar -x -C "$work/src"

# build SRC SIDE builds the three programs of tree SRC into $work/SIDE.
build() {
	mkdir -p "$work/$2/out"
	go -C "$1" build -o "$work/$2/" ./cmd/bmcast-sim ./cmd/bmcast-experiments
	go -C "$1/cmd/bmcast-bench" build -o "$work/$2/bmcast-bench" .
}
echo "identity: building $1 ($rev) and the working tree" >&2
build "$work/src" base
build "$root" head

# store NAME keeps stdin as artifact NAME: split into records, hashed as
# it streams past, and gzipped.
store() {
	{ awk 'BEGIN { RS = "[}],[{]" } { print }' | tee /dev/fd/3 | gzip -1 >"$out/$1.gz"; } 3>&1 |
		sha256sum | cut -c1-16 >"$out/$1.sha"
}

# sink NAME makes a FIFO for a program to write artifact NAME to, and
# stores what arrives there in the background.
sink() {
	echo "$1" >>"$out/names"
	mkfifo "$out/$1"
	store "$1" <"$out/$1" &
}

# settle waits for every sink of the last program. Opening a FIFO
# read-write unblocks a sink whose program never opened it.
settle() {
	local f
	for f in "$out"/*; do
		if [ -p "$f" ]; then
			: <>"$f"
			rm "$f"
		fi
	done
	wait
}

# capture NAME CMD... runs CMD and keeps its stdout, minus the "wrote"
# lines that echo output paths, as artifact NAME. A failing CMD leaves
# its exit status as the last line.
capture() {
	local name=$1
	shift
	echo "$name" >>"$out/names"
	{ "$@" 2>>"$out/stderr" || echo "exit status $?"; } | { grep -v '^wrote ' || true; } | store "$name"
	settle
}

# benchcounts BIN DIR SEED runs bmcast-bench traced and keeps its
# simulated outputs: fingerprints, model.* outputs and per-layer work
# counts, dropping every metric measured on the host clock or allocator.
benchcounts() {
	"$1" -trace "$2" -seed "$3" -repeats 1 | awk '$2 == "fingerprint" || $2 ~ /^model\./ ||
		(NF == 4 && $2 !~ /cpu_share|ns_per_|gc_cpu_s|cpu_per_wall|per_cpu_s|^harness\./)'
}

chaos='3s crash server; 5s loss node0.vmm 0.02; 8s loss node0.vmm 0'
for side in base head; do
	bin=$work/$side
	out=$bin/out
	echo "identity: running the matrix on $side" >&2
	for s in 0 1 8; do
		sink "sim-chaos-shards$s.trace.json"
		sink "sim-chaos-shards$s.metrics.json"
		capture "sim-chaos-shards$s.stdout" "$bin/bmcast-sim" -shards "$s" -secondary 1 -faults "$chaos" \
			-trace-out "$out/sim-chaos-shards$s.trace.json" -metrics-out "$out/sim-chaos-shards$s.metrics.json"
	done
	capture experiments-quick.stdout "$bin/bmcast-experiments" -quick
	capture experiments-quick-fleet-elasticity-shards2.stdout \
		"$bin/bmcast-experiments" -quick -fig fleet,elasticity -shards 2
	sink fleet-traced.trace.json
	sink fleet-traced.metrics.json
	capture fleet-traced.stdout "$bin/bmcast-experiments" -fig fleet -fleet 16 -image-mb 32 -boot-mb 1 \
		-trace-out "$out/fleet-traced.trace.json" -metrics-out "$out/fleet-traced.metrics.json"
	capture sim-tenants-storm.stdout "$bin/bmcast-sim" -tenants default -storm default
	for seed in 1 2 3; do
		mkdir "$out/bench$seed"
		capture "bench-traced-seed$seed.counts" benchcounts "$bin/bmcast-bench" "$out/bench$seed" "$seed"
	done
done

# firstdiff A B prints the first line where the two gzipped artifacts
# differ, reading both in lockstep.
firstdiff() {
	awk -v a=<(gzip -dc "$1") -v b=<(gzip -dc "$2") 'BEGIN {
		for (n = 1; ; n++) {
			ra = (getline la <a); rb = (getline lb <b)
			if (ra <= 0 && rb <= 0) exit
			if (ra <= 0) la = "<end of artifact>"
			if (rb <= 0) lb = "<end of artifact>"
			if (ra <= 0 || rb <= 0 || la != lb) {
				printf "    line %d\n      base: %s\n      head: %s\n", n, substr(la, 1, 240), substr(lb, 1, 240)
				exit
			}
		}
	}'
}

status=0
while read -r name; do
	ha=$(cat "$work/base/out/$name.sha")
	hb=$(cat "$work/head/out/$name.sha")
	if [ "$ha" = "$hb" ]; then
		printf '%-52s identical %s\n' "$name" "$ha"
	else
		printf '%-52s DIFFERS\n' "$name"
		firstdiff "$work/base/out/$name.gz" "$work/head/out/$name.gz"
		status=1
	fi
done <"$work/base/out/names"
exit $status
