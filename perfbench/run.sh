#!/usr/bin/env bash
# Builds the benchmark from source (release profile) and runs it with the
# given arguments; see perfbench/README.md.  Build output goes to stderr,
# so stdout carries only the benchmark's results.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --profile release ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
