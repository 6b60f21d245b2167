"""Golden digests: reports and the spectra, report and detour-reading artifacts, byte for byte.

`tests/data/report_digests.json` holds the sha256 of
`json.dumps(build_report(k, p, alphas, version="x"), sort_keys=True)` over a
grid of orders, alpha sets and detour caps, of every file that `cli.run`
writes for `spectra report` at (3, 5) in json and csv, and of every file it
writes for `build metric detour dds` at (2, 3) and (3, 5) in json and csv at
detour caps 24 and 80 (the csv runs write `detour-matrix.csv` and `dds.csv`
where the detour search runs).  A change that keeps
every report byte-identical keeps every digest.  The floats of a report can
move in the last digit with another numpy, so on another numpy the test is
skipped.  Rewrite the file, from the root of the repository, with
`PYTHONPATH=src:. python tests/test_report_digests.py`.
"""

import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from perfbench.workloads import make_inputs
from powergraph.cli import RunConfig, run
from powergraph.report import build_report

DIGESTS = Path(__file__).with_name("data") / "report_digests.json"
ORDERS = ((2, 3), (3, 5), (4, 5), (5, 5), (7, 7))
# the benchmark's alphas at seeds 3 and 7, and non-dyadic alphas with a repeat
ALPHA_SETS = (
    make_inputs("family-scale", 3).alphas,
    make_inputs("family-scale", 7).alphas,
    (0.3, 0.7, 0.123456789, 0.3),
)
DETOUR_CAPS = (24, 80)
ARTIFACT_ALPHAS = (0.0, 0.123456789, 0.3, 0.5625, 1.0)
DETOUR_ORDERS = ((2, 3), (3, 5))
DETOUR_COMMANDS = ("build", "metric", "detour", "dds")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests() -> dict[str, str]:
    digests = {}
    for k, p in ORDERS:
        for alphas in ALPHA_SETS:
            for cap in DETOUR_CAPS:
                payload = build_report(k, p, alphas, detour_oracle_max_n=cap, version="x")
                key = f"k{k}-p{p} alphas={list(alphas)} cap={cap}"
                digests[key] = _sha(json.dumps(payload, sort_keys=True).encode())
    return digests


def artifact_digests() -> dict[str, str]:
    digests = {}
    for fmt in ("json", "csv"):
        with tempfile.TemporaryDirectory() as tmp:
            config = RunConfig(
                k=3, p=5, alphas=ARTIFACT_ALPHAS, commands=("spectra", "report"), fmt=fmt,
                out_dir=Path(tmp),
            )
            assert run(config, out=io.StringIO()) == 0
            for path in sorted(Path(tmp).iterdir()):
                digests[f"{fmt}/{path.name}"] = _sha(path.read_bytes())
    return digests


def detour_artifact_digests() -> dict[str, str]:
    digests = {}
    for (k, p), cap, fmt in itertools.product(DETOUR_ORDERS, DETOUR_CAPS, ("json", "csv")):
        with tempfile.TemporaryDirectory() as tmp:
            config = RunConfig(
                k=k, p=p, commands=DETOUR_COMMANDS, fmt=fmt, detour_oracle_max_n=cap,
                out_dir=Path(tmp),
            )
            assert run(config, out=io.StringIO()) == 0
            for path in sorted(Path(tmp).iterdir()):
                digests[f"cap{cap}/{fmt}/{path.name}"] = _sha(path.read_bytes())
    return digests


def current() -> dict:
    return {
        "numpy": np.__version__,
        "reports": report_digests(),
        "artifacts": artifact_digests(),
        "detour_artifacts": detour_artifact_digests(),
    }


def test_reports_and_artifacts_match_their_golden_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {recorded['numpy']}, not {np.__version__}")
    assert len(recorded["reports"]) == len(ORDERS) * len(ALPHA_SETS) * len(DETOUR_CAPS)
    assert report_digests() == recorded["reports"]
    assert artifact_digests() == recorded["artifacts"]


def test_detour_reading_artifacts_match_their_golden_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {recorded['numpy']}, not {np.__version__}")
    digests = detour_artifact_digests()
    assert {"cap24/csv/k2-p3-detour-matrix.csv", "cap80/csv/k3-p5-dds.csv"} <= set(digests)
    assert digests == recorded["detour_artifacts"]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
