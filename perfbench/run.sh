#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build caches and run outputs stay
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# The commit the sources come from. Outside a git checkout it is a
# digest of the Go sources; in a checkout with uncommitted changes the
# commit gets -dirty- and that digest appended.
tree_digest() {
	find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16
}
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD)"
	if [ -n "$(git -C "$root" status --porcelain)" ]; then
		commit="$commit-dirty-$(tree_digest)"
	fi
else
	commit="tree-$(tree_digest)"
fi

(
	cd "$root/perfbench"
	env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0 \
		go build -trimpath -o "$build/perfbench" .
)

export PERFBENCH_COMMIT="$commit"
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
