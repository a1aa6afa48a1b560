"""Compare two sets of benchmark results, like for like.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are result records written by ``run.py``
(``.perfbench_out/result-*.json``) or directories of them. Runs are
grouped by workload and trace mode; each metric's median over a group's
runs is compared, and an end-to-end metric that worsens by more than its
``BENCHMARK.json`` bound is reported as a regression.

Results measured on different environments (CPU count or model, BLAS,
Python/NumPy/SciPy versions) are not comparable: compare refuses them.

Exit status: 0 no regression, 1 regression or failed check, 2 refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> Dict[Tuple[str, int], List[dict]]:
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    groups: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for file in files:
        record = json.loads(file.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def environments(*group_sets) -> List[dict]:
    """Distinct environment fingerprints across all records given."""
    unique: List[dict] = []
    for groups in group_sets:
        for records in groups.values():
            for record in records:
                if record["env"] not in unique:
                    unique.append(record["env"])
    return unique


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    envs = environments(base, new)
    if len(envs) > 1:
        print("refusing to compare results from different environments:")
        for env in envs:
            print("  " + json.dumps(env, sort_keys=True))
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, "
              f"{len(new[key])} new runs")
        for side, records in (("base", base[key]), ("new", new[key])):
            if not all(r["correct"] for r in records):
                print(f"  {side}: FAILED CHECKS")
                status = 1
        for name, spec in specs.items():
            try:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in base[key])
                after = statistics.median(
                    r["metrics"][name]["value"] for r in new[key])
            except KeyError:
                continue
            change = (after - before) / before if before else 0.0
            worse = -change if spec["better"] == "higher" else change
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else "ok"
                if worse > bound:
                    status = 1
            print(f"  {name:34s} {before:12.6g} -> {after:12.6g} "
                  f"{spec['unit']:9s} {100 * change:+7.1f}%  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
