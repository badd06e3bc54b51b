.PHONY: all build test check bench bench-diff fmt exec-smoke trace-smoke \
  telemetry-smoke fault-smoke profile-smoke fleet-smoke \
  interference-smoke perfbench-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: full build, full test suite, and a smoke pass of the
# benchmark harness (a few runs per benchmark, JSON export exercised).
check:
	dune build
	dune runtest
	dune exec bench/main.exe -- --dry-run --json _build/bench_smoke.json

# Full benchmark run with committed JSON artifact.
bench:
	dune exec bench/main.exe -- --json BENCH_9.json

# Regression gate over the two most recent committed artifacts: every row
# present in both is compared against its group's threshold ratio
# (bench/diff.ml); nonzero exit on any regression beyond threshold.
bench-diff:
	dune exec bench/diff.exe -- BENCH_8.json BENCH_9.json

# Format gate: the build image carries no ocamlformat, so the gate enforces
# the cheap invariants every formatter run would — no tab characters and no
# trailing whitespace in OCaml sources or dune files.
fmt:
	@if grep -rnP '\t|[ \t]+$$' --include='*.ml' --include='*.mli' \
	  --include=dune lib bin test bench; then \
	  echo 'fmt: tabs or trailing whitespace (listed above)'; exit 1; \
	else echo 'fmt: clean'; fi

# End-to-end executive pass: the example module on one and on two cores,
# advanced once under the skip-ahead executive and once per-tick with every
# export (telemetry, Chrome trace, metrics) compared byte for byte; then
# the document's seeded fault campaigns through the multicore skip-ahead
# executive (containment and reproducibility enforced by the exit code);
# finally out-of-range run flags, and documents with an out-of-range field
# (copies of the example with (mtf 0) and (depth 0)), must be refused with
# a diagnostic and a nonzero exit, never an uncaught exception; so must a
# copy whose first CAMERA window overlaps GNC's, breaking eq. (21).
EXEC_SMOKE_BAD = \
  "examples/configs/leo_satellite.air --ticks=-5" \
  "examples/configs/leo_satellite.air --ticks=-5 --faults" \
  "examples/configs/constellation.air --fleet --domains 0" \
  "examples/configs/leo_satellite.air --watch=0" \
  "examples/configs/leo_satellite.air --watch=-3" \
  "/tmp/air_exec_mtf0.air" \
  "/tmp/air_exec_mtf0.air --faults" \
  "/tmp/air_exec_depth0.air" \
  "/tmp/air_exec_overlap.air"

exec-smoke:
	set -e; for c in 1 2; do \
	  for run in skip ref; do \
	    if [ $$run = ref ]; then mode=--no-skip; else mode=--speed; fi; \
	    dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	      --cores $$c -t 20000 $$mode \
	      --telemetry-json /tmp/air_exec_$$run.telemetry.json \
	      --trace-json /tmp/air_exec_$$run.trace.json \
	      --metrics-json /tmp/air_exec_$$run.metrics.json > /dev/null; \
	  done; \
	  for export in telemetry trace metrics; do \
	    cmp /tmp/air_exec_skip.$$export.json /tmp/air_exec_ref.$$export.json; \
	  done; \
	  echo "exec-smoke: --cores $$c exports identical"; \
	done
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  --faults --cores 2 --campaign-json /tmp/air_exec_campaign.json
	sed 's/(mtf 2000)/(mtf 0)/' examples/configs/leo_satellite.air \
	  > /tmp/air_exec_mtf0.air
	sed 's/(depth 8)/(depth 0)/' examples/configs/leo_satellite.air \
	  > /tmp/air_exec_depth0.air
	sed '0,/(partition CAMERA) (offset 150)/s//(partition CAMERA) (offset 100)/' \
	  examples/configs/leo_satellite.air > /tmp/air_exec_overlap.air
	for bad in $(EXEC_SMOKE_BAD); do \
	  if dune exec bin/air_run.exe -- $$bad 2> /tmp/air_exec_bad.err; then \
	    echo "exec-smoke: accepted $$bad"; exit 1; fi; \
	  if grep -qi exception /tmp/air_exec_bad.err; then \
	    cat /tmp/air_exec_bad.err; exit 1; fi; \
	  echo "exec-smoke: refused $$bad"; \
	done

# End-to-end flight-recorder pass: run an example configuration with the
# recorder attached, export the Chrome trace and replay-check the event
# trace against the configured schedules (nonzero exit on any violation).
trace-smoke:
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  -t 3000 --trace-json /tmp/air_trace.json --check-trace

# End-to-end telemetry pass: run an example configuration with the frame
# accumulator attached, export CSV + JSON, and validate both artifacts
# (JSON well-formedness, schema marker, CSV column discipline).
telemetry-smoke:
	dune build test/telemetry_smoke.exe
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  -t 8000 --telemetry-json /tmp/air_telemetry.json \
	  --telemetry-csv /tmp/air_telemetry.csv
	dune exec test/telemetry_smoke.exe -- \
	  /tmp/air_telemetry.json /tmp/air_telemetry.csv

# End-to-end fault-injection pass: run the example document's seeded
# campaigns twice through the engine + containment oracle, export both
# reports, and validate them (JSON well-formedness, schema marker, all
# campaigns contained and reproducible, byte-identical reruns).
fault-smoke:
	dune build test/fault_smoke.exe
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  --faults --campaign-json /tmp/air_campaign_a.json
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  --faults --campaign-json /tmp/air_campaign_b.json
	dune exec test/fault_smoke.exe -- \
	  /tmp/air_campaign_a.json /tmp/air_campaign_b.json

# End-to-end self-profiler pass: run the example module under the default
# skip-ahead executive with the profiler attached, export the air-profile/2
# JSON and validate it (well-formedness, schema marker, step/batch/skip
# bucket ticks partitioning the requested horizon exactly, consistent
# probe accounting).
profile-smoke:
	dune build test/profile_smoke.exe
	dune exec bin/air_run.exe -- examples/configs/leo_satellite.air \
	  -t 20000 --speed --profile-json /tmp/air_profile.json
	dune exec test/profile_smoke.exe -- /tmp/air_profile.json 20000

# End-to-end parallel-fleet pass: advance the shipped constellation
# document sequentially and across 2 and 4 OCaml domains, and require the
# three observable fingerprints (traces, counters, bus state) to be
# byte-identical — the conservative engine's bit-identity guarantee,
# enforced by the exit code. Also lints the fleet's stats JSON.
fleet-smoke:
	dune build test/fleet_smoke.exe
	dune exec test/fleet_smoke.exe -- examples/configs/constellation.air 5000

# End-to-end interference pass: replay the bus-hog scenario against the
# example satellite sharded over two lanes, and validate the interference
# telemetry (throttled ticks on a partition other than the hog, JSON
# well-formedness) and the health-monitor discipline (temporal
# degradation exactly once per offending frame).
interference-smoke:
	dune build test/interference_smoke.exe
	dune exec test/interference_smoke.exe -- \
	  examples/configs/leo_satellite.air CAMERA

# End-to-end benchmark pass: one short untraced run of each workload of
# the repository benchmark (perfbench/README.md), built from source in the
# release profile, each repetition advancing its workload's full horizon
# and checking its output against the golden value. Fails unless every
# result line reports "correct": true and "failed": 0.
PERFBENCH_WORKLOADS = leo-dense beacon-sparse constellation-fleet campaign

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
	    --trace 0 > /tmp/air_perfbench_$$w.out || exit 1; \
	  tail -n 1 /tmp/air_perfbench_$$w.out | python3 -c 'import json, sys; \
	    r = json.loads(sys.stdin.read()); \
	    ok = r.get("correct") is True and r.get("failed") == 0; \
	    print(sys.argv[1], "attempted", r.get("attempted"), \
	          "failed", r.get("failed"), "ok" if ok else "FAILED"); \
	    sys.exit(0 if ok else 1)' $$w || exit 1; \
	done

clean:
	dune clean
