.PHONY: all build test fuzz bench lint check clean goldens soak bench-snapshots

all: build

build:
	dune build

test:
	dune runtest --force

# The test suite with every QCheck property at its long count (count x
# long_factor: 500 random pipelines instead of 10, 200,000 source-set
# pairs against the BDD instead of 2,000).  CI runs it nightly.
fuzz:
	QCHECK_LONG=1 dune test --force

# Full paper-scale benchmark run (slow).
bench:
	dune exec bench/main.exe

# Refresh the differential-regression goldens (test/goldens/*.txt) from
# the current build; review the diff before committing.
goldens:
	dune exec tools/make_goldens.exe -- test/goldens

# The acceptance-scale endurance run: 2000 epochs on Internet2 with the
# full fault drill, checkpointing into _soak/ (kill it and re-run with
# --resume to continue byte-identically).
soak:
	dune exec bin/apple_cli.exe -- soak -t internet2 --seed 42 --epochs 2000 \
	  --schedule examples/soak_internet2.soak --state-dir _soak

# Refresh the committed bench snapshots (BENCH_core.json at a reduced
# deterministic scale plus the fixed-size phase profile, BENCH_soak.json
# from the acceptance soak run); review the diff before committing, and
# keep EXPERIMENTS.md's schema docs in step
# (tools/check_bench_schema.sh gates that).
bench-snapshots:
	APPLE_BENCH_SCALE=0.2 dune exec bench/main.exe -- table5 fig10 fig11 fig12 \
	  profile --json BENCH_core.json
	dune exec bin/apple_cli.exe -- soak -t internet2 --seed 42 --epochs 2000 \
	  --schedule examples/soak_internet2.soak --bench-json BENCH_soak.json \
	  > /dev/null
	sh tools/check_bench_schema.sh

# Determinism & purity gate: the AST analyzer (lib/lint) parses every
# .ml/.mli under lib/ bin/ bench/ tools/ and enforces the rule catalog
# (L1..L13: polymorphic compare/hash, Hashtbl order, nondeterminism
# sources, stdout in libraries, catch-alls, Obj.magic, Marshal, ...).
# `--list-rules` prints the catalog; `--format json` emits the
# apple-lint/1 report.
lint:
	dune exec tools/apple_lint.exe

# One-stop gate: lint, compile everything, run the full test suite, then
# a scaled-down smoke of the jobs study so the parallel path is exercised
# with jobs>1 even on single-core CI boxes, plus the bench-snapshot
# schema guard and the deterministic soak-totals regression check
# (re-runs the acceptance soak and diffs BENCH_soak.json's totals and
# trajectory; only the machine-dependent perf line is exempt), the
# Chrome-trace export schema guard, the phase-budget regression gate
# (re-runs the bench profile section against BENCH_core.json's
# committed apple-profile/1 shares) and the LP work gate (the exact
# pivots and reduced costs of `apple solve -t internet2` against
# tools/lp_work.txt).
check: lint build test
	APPLE_BENCH_SCALE=0.02 APPLE_JOBS=2 APPLE_BENCH_ONLY=jobs dune exec bench/main.exe
	sh tools/check_bench_schema.sh
	sh tools/check_lint_schema.sh
	sh tools/check_soak_totals.sh
	sh tools/check_trace_schema.sh
	sh tools/check_phase_budgets.sh
	sh tools/check_lp_work.sh

clean:
	dune clean
