# Convenience targets; scripts/ci.sh is the canonical gate.

.PHONY: ci test bench bench-memo \
	explore bench-explore serve-smoke bench-service

ci:
	scripts/ci.sh

test:
	PYTHONPATH=src python -m pytest -x -q

# Full engine bench against the committed baseline.
bench:
	PYTHONPATH=src python -m repro bench --scale smoke \
		--baseline benchmarks/results/BENCH_engine.json

# Full design-space sweep: 1008 configurations through the analytical
# screening tier, the 16 survivors confirmed with real simulations,
# (IPC, lifetime) Pareto frontier printed at the end.
explore:
	PYTHONPATH=src python -m repro --scale smoke explore \
		--out $$(mktemp -d)/explore

# Explorer leverage bench: times the full sweep, gates the measured
# simulated-instruction saving at 50x over exhaustive simulation, and
# writes BENCH_explore.json (the committed artefact records 63x).
bench-explore:
	PYTHONPATH=src python -m repro bench --explore --scale smoke \
		--out $$(mktemp -d)

# Service-mode smoke: a 2-shard local service runs a submitted grid
# while one shard is killed mid-flight; the job must finish zero-loss,
# byte-identical to a single-pool run, resume from the durable
# manifest, and the service root must audit clean.  Same leg
# scripts/ci.sh runs.
serve-smoke:
	scripts/ci.sh --skip-tests --skip-bench --skip-memo --skip-schema \
		--skip-durability --skip-analytical

# Sharded-dispatch scaling bench: single-pool reference vs 1- and
# 2-shard local fleets, byte-identity asserted per fleet size, gated
# against the committed BENCH_service.json (the >= 1.8x floor at two
# shards is enforced only on multi-core hosts; single-core runs are
# stamped degenerate and gate on byte-identity alone).
bench-service:
	PYTHONPATH=src python -m repro bench --service --scale smoke \
		--out $$(mktemp -d) \
		--baseline benchmarks/results/BENCH_service.json

# Memoization bench: cold vs cache-served campaign (verified
# byte-identical) + snapshot warm-start, gated against the committed
# artefact.  Wall-clock ratios of the tiny warm pass are noisy, hence
# the generous threshold; correctness is asserted inside the bench.
bench-memo:
	PYTHONPATH=src python -m repro bench --memo --scale smoke \
		--out $$(mktemp -d) \
		--baseline benchmarks/results/BENCH_memo.json --threshold 0.5
