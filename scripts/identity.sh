#!/usr/bin/env bash
# identity.sh BASE checks that the working tree produces the same outputs
# as revision BASE:
#
#   scripts/identity.sh HEAD~1        # or: make identity BASE=HEAD~1
#
# It extracts BASE from the local repository with git archive (no
# network), builds bmcast-sim, bmcast-experiments, bmcast-obs and
# bmcast-bench from both trees, runs the artifact matrix below on each
# build in turn, and prints one line per artifact: "identical" with its
# hash, or the first differing line of each side. On each side the chaos
# run at -shards 8 must also match the one at -shards 1 (a worker count
# picks no schedule, DESIGN.md §13). It exits 1 when anything differs or
# any program exits non-zero, on either side.
#
# With BASE=HEAD on a clean checkout (what CI runs) both sides are the
# same commit, so the matrix checks that two builds and two runs of it
# agree byte for byte.
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

# build SRC SIDE builds the four programs of tree SRC into $work/SIDE.
build() {
	mkdir -p "$work/$2/out"
	go -C "$1" build -o "$work/$2/" ./cmd/bmcast-sim ./cmd/bmcast-experiments ./cmd/bmcast-obs
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
# its exit status as the last line, prints the tail of its stderr, and
# fails the whole check: two sides that fail alike are still a failure.
capture() {
	local name=$1
	shift
	echo "$name" >>"$out/names"
	{ "$@" 2>"$out/$name.stderr" || echo "exit status $?" | tee "$out/$name.failed"; } |
		{ grep -v '^wrote ' || true; } | store "$name"
	settle
	if [ -e "$out/$name.failed" ]; then
		echo "identity: $side $name: $(cat "$out/$name.failed"); its stderr ends:" >&2
		tail -n 20 "$out/$name.stderr" >&2
		echo "$side $name: $(cat "$out/$name.failed")" >>"$work/failed"
	fi
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
	# The traced fleet cell is written to plain files, because
	# bmcast-obs reads it back for its -json report.
	capture fleet-traced.stdout "$bin/bmcast-experiments" -fig fleet -fleet 16 -image-mb 32 -boot-mb 1 \
		-trace-out "$out/fleet.trace" -metrics-out "$out/fleet.metrics"
	for f in trace metrics; do
		echo "fleet-traced.$f.json" >>"$out/names"
		store "fleet-traced.$f.json" <"$out/fleet.$f"
	done
	capture fleet-traced.report.txt "$bin/bmcast-obs" -trace "$out/fleet.trace" -metrics "$out/fleet.metrics"
	capture fleet-traced.report.json "$bin/bmcast-obs" -trace "$out/fleet.trace" -metrics "$out/fleet.metrics" -json
	rm "$out/fleet.trace" "$out/fleet.metrics"
	capture sim-tenants-storm.stdout "$bin/bmcast-sim" -tenants default -storm default
	for seed in 1 2 3; do
		mkdir "$out/bench$seed"
		capture "bench-traced-seed$seed.counts" benchcounts "$bin/bmcast-bench" "$out/bench$seed" "$seed"
	done
done

# firstdiff A B LA LB prints the first line where the two gzipped
# artifacts differ, reading both in lockstep, each labeled LA or LB.
firstdiff() {
	awk -v a=<(gzip -dc "$1") -v b=<(gzip -dc "$2") -v la="$3" -v lb="$4" 'BEGIN {
		for (n = 1; ; n++) {
			ra = (getline xa <a); rb = (getline xb <b)
			if (ra <= 0 && rb <= 0) exit
			if (ra <= 0) xa = "<end of artifact>"
			if (rb <= 0) xb = "<end of artifact>"
			if (ra <= 0 || rb <= 0 || xa != xb) {
				printf "    line %d\n      %s: %s\n      %s: %s\n", n, la, substr(xa, 1, 240), lb, substr(xb, 1, 240)
				exit
			}
		}
	}'
}

# compare LABEL A B LA LB prints one verdict line for artifacts A and B
# (paths without the .sha/.gz suffix) and the first differing line.
status=0
compare() {
	local ha hb
	ha=$(cat "$2.sha")
	hb=$(cat "$3.sha")
	if [ "$ha" = "$hb" ]; then
		printf '%-52s identical %s\n' "$1" "$ha"
	else
		printf '%-52s DIFFERS\n' "$1"
		firstdiff "$2.gz" "$3.gz" "$4" "$5"
		status=1
	fi
}

while read -r name; do
	compare "$name" "$work/base/out/$name" "$work/head/out/$name" base head
done <"$work/base/out/names"
for side in base head; do
	for kind in stdout trace.json metrics.json; do
		compare "$side sim-chaos-shards1-vs-8.$kind" "$work/$side/out/sim-chaos-shards1.$kind" \
			"$work/$side/out/sim-chaos-shards8.$kind" shards1 shards8
	done
done
if [ -e "$work/failed" ]; then
	echo "FAILED (non-zero exit):"
	sed 's/^/  /' "$work/failed"
	status=1
fi
exit $status
