#!/bin/sh
# fuzz_smoke.sh — run every Fuzz* target in the module for a short
# while, one target at a time (go test -fuzz takes one target in one
# package per run). The targets are found with `go test -list`, so a
# new fuzz test is picked up without editing this script.
#
# FUZZTIME sets the budget per target (default 10s).
set -eu

fuzztime=${FUZZTIME:-10s}
# `go test -list` prints each package's matching names, then its "ok"
# line; pair every name with the package that follows it.
list=$(go test -list '^Fuzz' ./...)
targets=$(echo "$list" | awk '
	/^Fuzz/ { fns = fns " " $1; next }
	/^ok/ { n = split(fns, f, " "); for (i = 1; i <= n; i++) print $2 " " f[i]; fns = "" }')
if [ -z "$targets" ]; then
	echo "fuzz_smoke: no fuzz targets found" >&2
	exit 1
fi
echo "$targets" | while read -r pkg fn; do
	echo "== $pkg $fn ($fuzztime)"
	go test -run '^$' -fuzz "^$fn\$" -fuzztime "$fuzztime" "$pkg"
done
