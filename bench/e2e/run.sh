#!/usr/bin/env bash
# Build the harness and the daemon from source, then run one benchmark
# invocation from the root of the checkout.  Arguments pass through to
# bench/e2e/main.exe (see bench/e2e/README.md).
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/e2e/dune ]; then
  echo "bench/e2e/run.sh: run from the root of an ogb checkout" >&2
  exit 2
fi
dune build --root . ./bench/e2e/main.exe ./bin/ogb_cli.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
