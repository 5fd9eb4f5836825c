#!/usr/bin/env bash
# The repository lint gate: gofmt, go vet, rhlint (the determinism and
# hot-path allocation suite, see docs/LINT.md), then staticcheck and
# shellcheck when installed. CI runs the same steps as a required job;
# locally the optional tools are skipped with a notice rather than
# failing machines that lack them.
#
# Usage: scripts/lint.sh
set -uo pipefail
cd "$(dirname "$0")/.." || exit 1

fail=0

echo "== gofmt =="
fmtout="$(gofmt -l .)"
if [ -n "$fmtout" ]; then
	echo "gofmt needed on:"
	echo "$fmtout"
	fail=1
fi

echo "== go vet =="
go vet ./... || fail=1

echo "== rhlint =="
rhx_bin="$(mktemp -t rhx.XXXXXX)"
if go build -o "$rhx_bin" ./cmd/rhx; then
	# The gate: every unsuppressed finding fails it.
	"$rhx_bin" lint ./... || fail=1
	# The inventory: the -json run's stderr summary counts findings,
	# suppressed (//rhlint:allow) sites, packages, and facts.
	"$rhx_bin" lint -json ./... >/dev/null || fail=1
else
	fail=1
fi
rm -f "$rhx_bin"

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./... || fail=1
else
	echo "staticcheck not installed; skipped (CI runs it)"
fi

echo "== shellcheck scripts/ =="
if command -v shellcheck >/dev/null 2>&1; then
	shellcheck scripts/*.sh || fail=1
else
	echo "shellcheck not installed; skipped (CI runs it)"
fi

if [ "$fail" -ne 0 ]; then
	echo "lint: FAIL"
	exit 1
fi
echo "lint: ok"
