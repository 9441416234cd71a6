#!/usr/bin/env bash
# The repository benchmark: bench/harness/run.py (see
# bench/harness/README.md for workloads, metrics and the A/B mode).
exec python3 "$(dirname "$0")/../bench/harness/run.py" "$@"
