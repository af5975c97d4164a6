#!/usr/bin/env bash
# Build cmbench from source in this checkout and run it with the given
# arguments, e.g.  bash perf/run.sh --workload routed-reads --seed 3
# Build output goes to stderr, so the result stays the last stdout line.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dune build --root "$root" --cache=disabled --display=quiet perf/cmbench.exe 1>&2
exec "$root/_build/default/perf/cmbench.exe" "$@"
