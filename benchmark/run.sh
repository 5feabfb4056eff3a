#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout (Go's caches included, so nothing is written outside it) and
# runs it from the checkout's root with the driver's arguments.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/dgc-benchmark" .)
cd "$root"

# A known defect of the program under test (README.md, Substrate) kills about
# one run in 200 of the ring workloads with the panic below. Such a run says
# nothing about the change being judged, and a gate that fails one evaluation
# in four by chance is no gate, so that run — and only that run — is logged
# and made again, once. Every other failure is final.
defect='panic: ids: Ref of unassigned intern id'
err=$build/stderr.$$
trap 'rm -f "$err"' EXIT
for attempt in 1 2; do
	status=0
	"$build/dgc-benchmark" "$@" 2>"$err" || status=$?
	cat "$err" >&2
	if [ "$status" -eq 0 ] || [ "$attempt" -eq 2 ] || ! grep -qF "$defect" "$err"; then
		break
	fi
	echo "run.sh: the program under test died of the known internal/ids race; running again" >&2
	mkdir -p "$here/out"
	echo "$(date -u +%FT%TZ) $defect: $*" >>"$here/out/crashes.log"
done
exit "$status"
