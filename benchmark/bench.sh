#!/bin/sh
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments, e.g.
#
#   sh benchmark/bench.sh --workload sor-fig2 --seed 1 --seconds 10 --trace 0
#   sh benchmark/bench.sh run --reps 5
#
# Run from the root of the checkout.  The build goes to .bench_build/
# (release profile, no shared dune cache) so it neither disturbs nor
# depends on a developer's _build/.
set -e
dune build --root . --build-dir .bench_build --profile release \
  --cache disabled --display quiet ./benchmark/amber_bench.exe >&2
exec .bench_build/default/benchmark/amber_bench.exe "$@"
