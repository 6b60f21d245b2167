"""Self-test of the benchmark: a tiny pass of every workload, traced and untraced.

    python3 perfbench/selftest.py

Each workload is cut down to the (2, 3) instance and run through ``run.main``
with ``--seconds 0`` (one pass).  Every metric declared in BENCHMARK.json must
appear in the printed lines and in the final JSON line, and the outputs must
pass the correctness gate.  Exits 0 on success, 1 with the problems listed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402  (puts the checkout's src/ on sys.path)

TINY = ((2, 3),)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_workload(name: str, declared: dict) -> list[str]:
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
        lines = buf.getvalue().splitlines()
        where = f"{name} --trace {trace}"
        result = json.loads(lines[-1])
        if code != 0 or set(result) != RESULT_KEYS or not result["correct"] or result["attempted"] < 1:
            problems.append(f"{where}: exit {code}, result {result}")
            continue
        printed = {line.split(" = ")[0] for line in lines if " = " in line}
        for metric in declared[kind]:
            got = result["metrics"].get(metric["name"])
            if metric["name"] not in printed or got is None or got["unit"] != metric["unit"]:
                problems.append(f"{where}: metric {metric['name']} missing or mislabelled")
    return problems


def main() -> int:
    from perfbench import workloads

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in declared["workloads"]:
        name = workload["name"]
        workloads.WORKLOADS[name] = dataclasses.replace(workloads.WORKLOADS[name], instances=TINY)
        problems += check_workload(name, declared)
    for msg in problems:
        print("selftest:", msg)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
