"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-plain --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/METRICS.md`` and ``BENCHMARK.json``):
``scan-plain``, ``scan-array``, ``serve-http`` and ``train-fit``. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from a traced run and writes its spans
to ``.perfbench_out/spans-<workload>-<seed>.jsonl``. Every run checks the
program's outputs; the last stdout line is the JSON result
(``correct``, ``attempted``, ``failed``, ``metrics``), and the full
record (environment fingerprint, quartiles, check counts) is written to
``.perfbench_out/result-<workload>-<seed>-trace<0|1>.json``.

Exit status: 0 when the run completed (even if a check failed — the
result says so), 2 when the benchmark cannot run here (no program source,
failed model build).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback

from harness import OUT_DIR, ROOT, BenchError, Run, environment, require_program
from sizes import DEFAULT_SEED, SCALES

WORKLOADS = ("scan-plain", "scan-array", "serve-http", "train-fit")


def _catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def execute(run: Run, scale: str):
    """Run the workload; returns its tracer (spans) for the traced run."""
    from build import ensure_model

    sizes = SCALES[scale]
    if run.workload == "train-fit":
        from training import run_fit

        return run_fit(run, sizes)
    model_dir = ensure_model(scale)
    if run.workload == "serve-http":
        from serving import run_serve

        return run_serve(run, sizes, model_dir)
    from scans import run_scan

    return run_scan(run, sizes, model_dir, farm=run.workload == "scan-array")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench workload runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes ('toy' is the smoke test's)")
    args = parser.parse_args(argv)

    try:
        require_program()
        catalogue = _catalogue()
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Keep the program's temporary files (farm spill files) in the checkout.
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.scale)
    print(f"[{run.workload}] env {json.dumps(environment())}")
    try:
        tracer = execute(run, args.scale)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # A crash inside the program is a failed operation, not a
        # benchmark error: report it as an incorrect run.
        traceback.print_exc()
        run.failures.append("crash: " + traceback.format_exc(limit=1))
        run.op_outcome(False)
        tracer = None

    # Layers a workload's path never reaches read 0 (see METRICS.md).
    wanted = catalogue["per_layer" if run.trace else "end_to_end"]
    on_path = sorted(run.metrics)
    for metric in wanted:
        if metric["name"] not in run.metrics:
            run.metric(metric["name"], 0.0, metric["unit"])
    run.metrics = {m["name"]: run.metrics[m["name"]] for m in wanted}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if tracer is not None and run.trace:
        tracer.write(OUT_DIR / f"spans-{run.stem}.jsonl")
    record = run.record()
    record["on_path"] = on_path
    with open(OUT_DIR / f"result-{run.stem}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for name, (value, unit, spread) in run.metrics.items():
        extra = "" if spread is None else (
            f"  [q1 {spread[0]:.6g}, q3 {spread[2]:.6g}]"
        )
        print(f"{name:34s} {value:14.6g} {unit}{extra}")
    for failure in run.failures:
        print(f"CHECK FAILED {failure}")
    print(run.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
