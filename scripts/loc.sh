#!/bin/sh
# Prints the code-size metric ROADMAP.md tracks: non-test Go lines that
# are neither blank nor comment-only, for the transport core (root
# package, internal/protocol, internal/server, internal/mux). Run from
# the repository root. Subpackages (internal/server/journal, .../sched)
# are not part of the metric.
set -eu
total=0
for dir in . internal/protocol internal/server internal/mux; do
	n=$(ls "$dir"/*.go | grep -v '_test\.go$' | xargs cat | grep -v '^[[:space:]]*//' | grep -vc '^[[:space:]]*$')
	printf '%-20s %6d\n' "$dir" "$n"
	total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
