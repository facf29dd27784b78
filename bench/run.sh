#!/usr/bin/env bash
# The benchmark's one command.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one pass, one process: the form BENCHMARK.json's
#       "command" is run in. The last line of standard output is the result.
#   bash bench/run.sh [--seed <n>] [--seconds <s>]
#       the whole set: every workload's end-to-end pass, then its traced
#       pass, one process each. Reports land in bench/out/.
#   bash bench/run.sh --selfcheck [--seed <n>] [--seconds <s>]
#       the whole set twice (bench/out/A, bench/out/B); fails unless every
#       end-to-end metric of run B is within its BENCHMARK.json bound of A.
#
# Exits non-zero if any job failed its correctness gate. Everything it
# writes stays under bench/: the build and Go's cache in .build/, results
# in out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"
if [ ! -f ../go.mod ]; then
	echo "bench/run.sh: ../go.mod not found: the benchmark builds against the repository it sits in" >&2
	exit 2
fi
# The build reads the repository and writes only under .build/: Go's build
# cache, its scratch directory and its telemetry counters are all pointed
# there, and no toolchain or module is ever downloaded.
mkdir -p .build/tmp
GOCACHE="$here/.build/gocache" GOTMPDIR="$here/.build/tmp" XDG_CONFIG_HOME="$here/.build/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off go build -o .build/bench .

selfcheck=0
single=0
pass=()
for a in "$@"; do
	case "$a" in
	--selfcheck) selfcheck=1 ;;
	--workload | -workload | --workload=* | -workload=*) single=1; pass+=("$a") ;;
	*) pass+=("$a") ;;
	esac
done

if [ "$single" = 1 ]; then
	exec .build/bench -out out "${pass[@]}"
fi

run_set() { # $1 = output directory
	local rc=0 w t
	for w in $(.build/bench -list); do
		for t in 0 1; do
			.build/bench -out "$1" "${pass[@]}" -workload "$w" -trace "$t" || rc=1
			echo
		done
	done
	return $rc
}

if [ "$selfcheck" = 1 ]; then
	run_set out/A
	run_set out/B
	.build/bench -compare ../BENCHMARK.json out/A out/B
else
	run_set out
fi
