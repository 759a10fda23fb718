# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench perf perf-smoke chaos audit fuzz elastic overload trace geo examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer

# Every paper experiment at 0.6x simulated duration (a complete run in
# ~40 minutes of wall time; --scale 1.0 reproduces the full windows),
# then the bechamel microbenchmarks.
bench:
	dune exec -- lion experiment all --scale 0.6
	dune exec bench/main.exe

# Full perf run (see docs/PERF.md): every registered scenario under
# bechamel, writing schema-stable BENCH_<date>.json in the repo root
# and gating against the committed baseline.
perf:
	dune exec -- lion perf --baseline bench/perf_baseline.json

# Quick CI variant: fewer samples, shorter quota, same scenarios and
# the same gates (minor words per transaction, or per event where a
# scenario counts no transactions; calibrated wall p50; drain speedup
# floor).
perf-smoke:
	dune exec -- lion perf --quick --baseline bench/perf_baseline.json

# Fault-injection experiments at quick scale (see docs/FAULTS.md).
chaos:
	dune exec -- lion experiment fault_crash_sweep --scale 0.5
	dune exec -- lion experiment fault_partition --scale 0.5
	dune exec -- lion experiment fault_straggler --scale 0.25

# Jepsen-style consistency audit (see docs/CONSISTENCY.md): every
# protocol under a crash, then Lion under every nemesis (crash-rejoin
# included). Exits non-zero on any serializability anomaly, diverged
# replica or liveness finding.
audit:
	dune exec -- lion audit --proto all --nemesis crash --seconds 2
	dune exec -- lion audit --proto lion --nemesis all --seconds 2
	dune exec -- lion audit --proto lion --nemesis overload --overload \
		--seconds 2
	dune exec -- lion audit --proto epoch --nemesis all --seconds 2

# Coverage-guided fault-schedule fuzzing (see docs/FUZZING.md): a
# seeded campaign over random fault schedules, checked for safety and
# liveness, then the planted-bug gate — with the phantom-secondary bug
# re-planted the fuzzer must find it and shrink the repro to <=3 ops,
# and with the flag off the same budget must audit clean.
fuzz:
	dune exec -- lion fuzz --seed 7 --rounds 60 \
		--protos lion-batch,lion,2pc --shrink --assert-clean
	dune exec -- lion fuzz --seed 7 --rounds 60 \
		--protos lion-batch,lion,2pc --reintroduce-phantom --shrink \
		--assert-finds-bug

# Elastic-membership experiment (see docs/MEMBERSHIP.md): the LSTM
# forecaster drives node join/decommission over a diurnal cycle while
# open-loop traffic runs; reports time-to-rebalance and goodput dips.
elastic:
	dune exec -- lion elastic --smoke

# Overload experiments (see docs/OVERLOAD.md): offered-load sweeps for
# lion/star/2pc through 1.5x capacity (with and without protection)
# plus the metastable-failure repro; CSVs land in overload/.
overload:
	dune exec -- lion overload --out overload

# Slow-transaction traces (see docs/TRACING.md): Lion vs 2PC on a
# skewed, 50%-cross workload; Chrome/Perfetto JSON lands in traces/.
trace:
	mkdir -p traces
	dune exec -- lion trace --proto lion --cross 0.5 --skew 0.8 \
		--out traces/lion.json
	dune exec -- lion trace --proto 2pc --cross 0.5 --skew 0.8 \
		--out traces/2pc.json

# Geo-replication experiments (see docs/GEO.md): cross-region ratio
# sweeps at 2 and 3 regions for lion/star/2pc/epoch — asserting the
# Lion-vs-EpochOCC crossover — plus goodput under a WAN partition.
geo:
	dune exec -- lion geo --assert-crossover

examples:
	dune exec examples/quickstart.exe
	dune exec examples/planner_explain.exe
	dune exec examples/smallbank_demo.exe

clean:
	dune clean
	rm -rf traces overload
