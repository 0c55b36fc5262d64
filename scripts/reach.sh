#!/usr/bin/env bash
# reach.sh — which functions does the product reach?
#
# Builds every entry point (cmd/*, examples/*, benchmark) with coverage
# instrumentation over the whole module, drives each one through every flag
# it has, adds the simtest harness as the one test entry point, merges the
# counters, and prints every function outside benchmark/ that none of them
# executed and that scripts/reach.allow does not name, plus every allowlist
# entry that no longer exists or is now reached. Exit status 1 when it
# printed anything, 0 otherwise.
#
# Usage (from the repository root): scripts/reach.sh, or `make reach`.
# REACH_DIR=<dir> keeps the binaries, counters and merged profile in <dir>
# instead of a temporary directory removed on exit.
set -euo pipefail

GO=${GO:-go}
root=$(pwd)
allow=$root/scripts/reach.allow
if [ -n "${REACH_DIR:-}" ]; then
	dir=$REACH_DIR
	rm -rf "$dir"
	mkdir -p "$dir"
else
	dir=$(mktemp -d)
	trap 'rm -rf "$dir"' EXIT
fi
bin=$dir/bin
out=$dir/out
mkdir -p "$bin" "$out" "$dir/cov/run" "$dir/cov/test"

# 1. Build every entry point instrumented over every package of the module.
$GO build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/... ./benchmark

# 2. Drive each one. `x CODE CMD ARGS...` runs CMD from $out with its
# counters going to cov/run and fails the gate unless it exits CODE.
x() {
	local want=$1 got=0
	shift
	(cd "$out" && GOCOVERDIR=$dir/cov/run "$@" >"$out/stdout" 2>"$out/stderr") || got=$?
	if [ "$got" != "$want" ]; then
		echo "reach: $* exited $got, want $want" >&2
		cat "$out/stderr" >&2
		exit 1
	fi
}

b=$bin/mpccbench
short=(-dur 2s -warmup 1s)
x 0 "$b" -list
x 0 "$b" -h
x 2 "$b"
x 2 "$b" -bogus
x 2 "$b" -exp bogus
x 2 "$b" -exp fig5a -reps 0
x 2 "$b" -exp fig5a -dur 0s
x 2 "$b" -exp fig5a -dur 4s -warmup 5s
x 2 "$b" -exp fig5a -workers 0
: >"$out/file" # a path under a regular file can be neither created nor opened
for f in -csvdir -trace -timeline -flightrec -cpuprofile; do
	x 1 "$b" -exp sched "${short[@]}" "$f" "$out/file/f"
done
x 0 "$b" -exp all "${short[@]}" -seed 7 -workers 2 -csvdir "$out/csv"
x 0 "$b" -exp fig14 -dur 1s -warmup 500ms -full
x 0 "$b" -exp obs-singlepath "${short[@]}" -reps 2 -trace "$out/t.jsonl" -timeline "$out/tl.jsonl" \
	-flightrec "$out/fr.jsonl" -cpuprofile "$out/cpu.pb.gz" -memprofile "$out/mem.pb.gz"
x 0 "$b" -exp churn "${short[@]}" -trace "$out/churn.jsonl"
x 0 "$b" -exp faults "${short[@]}" -trace "$out/faults.jsonl"

s=$bin/mpccsim
for p in mpcc-latency mpcc-loss lia olia balia wvegas cubic mpcc-connlevel vivace; do
	x 0 "$s" -proto "$p" -share -links 50,80 -delay 10ms -buffer 100 -loss 0.001 -dur 2s -warmup 1s -seed 3 \
		-trace "$out/sim.csv"
done
x 0 "$s" -proto lia -share -sp cubic -dur 2s -warmup 1s
x 0 "$s" -h
x 2 "$s" -bogus
x 2 "$s" -proto bogus
x 2 "$s" -share -sp bogus
x 2 "$s" -delay -1ms
x 2 "$s" -buffer 0
x 2 "$s" -loss 2
x 2 "$s" -dur 0s
x 2 "$s" -warmup -1s
x 2 "$s" -warmup 5s -dur 2s
x 2 "$s" -links 100,oops
x 1 "$s" -dur 2s -warmup 1s -trace "$out/file/f"

t=$bin/mpcctrace
for tr in t churn faults; do
	x 0 "$t" summary "$out/$tr.jsonl"
done
x 0 "$t" summary -run 1 "$out/t.jsonl"
x 0 "$t" filter -kind drop -run 0 "$out/t.jsonl"
x 0 "$t" filter -flow mp -sf 0 "$out/t.jsonl"
x 0 "$t" filter -link link1 "$out/faults.jsonl"
x 0 "$t" csv -kind queue-depth -bucket 250ms -run 1 "$out/t.jsonl"
x 0 "$t" csv -kind rate-change "$out/t.jsonl"
x 0 "$t" timeline -run 1 -window 250ms -csv "$out/t.jsonl"
x 0 "$t" timeline "$out/t.jsonl"
x 0 "$t" timeline -run 1 "$out/tl.jsonl"
x 0 "$t" timeline -csv "$out/tl.jsonl"
x 0 "$t" -h
x 0 "$t" summary -h
x 2 "$t"
x 2 "$t" explode
x 2 "$t" summary -bogus
x 2 "$t" csv "$out/t.jsonl"
x 2 "$t" csv -kind bogus "$out/t.jsonl"
x 2 "$t" filter -kind bogus "$out/t.jsonl"
x 1 "$t" summary -run 99 "$out/t.jsonl"
x 1 "$t" summary "$out/file/f"

f=$bin/mpccfair
x 0 "$f" 'caps=100,100,100; conn=0; conn=0,1,2'
x 0 "$f" caps=10,40\; conn=0\; conn=0,1\; conn=1
x 0 "$f" -h
x 2 "$f"
x 2 "$f" caps=oops

printf '0,20\n4,5\n8,40\n' >"$out/bw.csv"
x 0 "$bin/cellular_trace" -dur 6s
x 0 "$bin/cellular_trace" -dur 6s -trace "$out/bw.csv"
x 0 "$bin/churn" -dur 2s
for e in datacenter failover fairness quickstart tracing wifi_cellular; do
	x 0 "$bin/$e"
done

x 0 "$bin/benchmark" -quick

# 3. The one test entry point: the simtest harness is the product.
if ! log=$($GO test -count=1 -cover -coverpkg=./... ./internal/simtest -args -test.gocoverdir="$dir/cov/test" 2>&1); then
	echo "$log" >&2
	exit 1
fi

# 4. Merge.
$GO tool covdata textfmt -i="$dir/cov/run,$dir/cov/test" -o "$dir/all.txt"
$GO tool cover -func="$dir/all.txt" >"$dir/func.txt"

# 5. Name each function dir.Func or dir.Recv.Method from its declaration
# line (dir is the package directory, "mpcc" for the root package), then
# compare the unreached ones with the allowlist.
module=$($GO list -m)
awk -v module="$module/" -v allow="$allow" '
function declname(path, line,    src, dirpart, pkg, s, recv) {
	src = substr(path, length(module) + 1)
	dirpart = src
	sub(/\/[^\/]*$/, "", dirpart)
	pkg = dirpart
	if (dirpart == src) { pkg = module; sub(/\/$/, "", pkg) }
	if (!(src in loaded)) {
		n = 0
		while ((getline s < src) > 0) text[src, ++n] = s
		close(src)
		loaded[src] = 1
	}
	s = text[src, line]
	if (s ~ /^func \(/) {
		recv = s
		sub(/^func \(/, "", recv)
		sub(/\).*/, "", recv)
		sub(/.*[ *]/, "", recv)
		sub(/\[.*/, "", recv)
		sub(/^func \([^)]*\) /, "", s)
		sub(/[\[(].*/, "", s)
		return pkg "." recv "." s
	}
	sub(/^func /, "", s)
	sub(/[\[(].*/, "", s)
	return pkg "." s
}
BEGIN {
	while ((getline s < allow) > 0) {
		if (s ~ /^[ \t]*(#|$)/) continue
		name = s; sub(/[ \t].*/, "", name)
		reason = s; sub(/^[^ \t]*[ \t]*/, "", reason)
		if (reason == "") { print "allowlist entry without a reason: " name; bad = 1 }
		allowed[name] = 1
	}
}
$1 == "total:" { next }
{
	split($1, pos, ":")
	if (index(pos[1], module "benchmark/") == 1) next
	name = declname(pos[1], pos[2])
	seen[name] = 1
	if ($NF == "0.0%") {
		if (!(name in allowed)) { print "unreached: " name " (" substr(pos[1], length(module) + 1) ":" pos[2] ")"; bad = 1 }
	} else if (name in allowed) {
		reached[name] = 1
	}
}
END {
	for (name in allowed) {
		if (!(name in seen)) { print "stale allowlist entry (no such function): " name; bad = 1 }
		else if (name in reached) { print "stale allowlist entry (now reached): " name; bad = 1 }
	}
	exit bad
}' "$dir/func.txt"
