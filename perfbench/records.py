"""Schema-versioned result records, and the compare mode.

A result file (``--out PATH``) is a JSON list of run records.  Each
record names its workload, seed and trace mode, the host it ran on (git
revision, usable CPUs, Python/NumPy/SciPy versions) and one entry per
workload x metric with the unit, the samples, their median and
quartiles, and the reported value.

``--compare BASE CHANGE`` pools the records of each file by workload and
metric (one value per run) and prints one row per pair: medians and
quartiles of both sides, the change, and a verdict against the bound in
``BENCHMARK.json``.  A pair whose spread (interquartile range over
median) is wider than its bound on either side is *unresolved*, unless
every run of one side beats every run of the other.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

SCHEMA_VERSION = 1


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (a single value is its own quartiles)."""
    values = [float(value) for value in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def entry(workload: str, metric: str, unit: str, value: float,
          samples) -> dict:
    samples = [float(sample) for sample in samples] or [float(value)]
    q1, median, q3 = quartiles(samples)
    return {"workload": workload, "metric": metric, "unit": unit,
            "value": float(value), "samples": samples,
            "median": median, "q1": q1, "q3": q3}


def environment(root: Path, usable_cpus: int) -> dict:
    """Where and on what the run happened (``usable_cpus`` as the
    process found them at start)."""
    import numpy
    import scipy
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"     # e.g. an exported checkout without .git
    return {"git_rev": rev or "unknown",
            "usable_cpus": usable_cpus,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def append(path, record: dict) -> None:
    """Append ``record`` to the JSON list in ``path`` (created if absent)."""
    path = Path(path)
    records = json.loads(path.read_text(encoding="utf-8")) \
        if path.is_file() else []
    records.append(record)
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    os.replace(temp, path)


def _run_values(path) -> tuple[dict, dict]:
    values: dict[tuple[str, str], list[float]] = {}
    units: dict[tuple[str, str], str] = {}
    for record in json.loads(Path(path).read_text(encoding="utf-8")):
        if record.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"{path}: unsupported record schema "
                             f"{record.get('schema')!r}")
        for item in record["entries"]:
            key = (item["workload"], item["metric"])
            values.setdefault(key, []).append(item["value"])
            units[key] = item["unit"]
    return values, units


def verdict(base, change, better: str, bound: float | None) -> str:
    """One pair's verdict: ok, improved, REGRESSION or unresolved."""
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    change_wins = all(sign * (c - b) < 0 for c in change for b in base)
    base_wins = all(sign * (c - b) > 0 for c in change for b in base)
    spread = max((b3 - b1) / abs(b_med) if b_med else 0.0,
                 (c3 - c1) / abs(c_med) if c_med else 0.0)
    if spread > bound and not (change_wins or base_wins):
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    if worse < -bound:
        return "improved"
    return "ok"


def compare(base_path, change_path, benchmark_path) -> int:
    """Print the comparison table; returns 1 when any pair regressed."""
    benchmark = json.loads(Path(benchmark_path).read_text(encoding="utf-8"))
    spec = {metric["name"]: metric for metric
            in benchmark["end_to_end"] + benchmark["per_layer"]}
    base, units = _run_values(base_path)
    change, _ = _run_values(change_path)
    print(f"{'workload':22} {'metric':40} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8}  verdict")
    regressed = False
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        info = spec.get(metric, {})
        status = verdict(base[key], change[key], info.get("better", "lower"),
                         info.get("bound"))
        regressed |= status == "REGRESSION"
        b1, b_med, b3 = quartiles(base[key])
        c1, c_med, c3 = quartiles(change[key])
        delta = (c_med - b_med) / abs(b_med) if b_med else 0.0
        print(f"{workload:22} {metric:40} "
              f"{f'{b_med:.4g} [{b1:.4g}, {b3:.4g}]':>32} "
              f"{f'{c_med:.4g} [{c1:.4g}, {c3:.4g}]':>32} "
              f"{delta:+8.1%}  {status} ({units[key]}, "
              f"n={len(base[key])}/{len(change[key])})")
    return 1 if regressed else 0
