"""Smoke-sized self-test of the benchmark.

    python3 perfbench/selftest.py

Runs all three workloads on tiny grids (``--smoke``), untraced and
traced, and asserts that every metric ``BENCHMARK.json`` names is
emitted with its unit, that the output checks ran and passed, that an
unpinned seed takes the z-test path, that result records feed the
compare mode, and that the runner refuses to run (non-zero exit, no
result line) without the repository's source tree.  Takes about half
a minute; everything it writes stays under ``.perfbench_work``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER = HERE / "run.py"


def _run(*args, cwd=ROOT, runner=RUNNER):
    done = subprocess.run([sys.executable, str(runner), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done


def _result(done) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(HERE))
    import layers
    import run

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    assert end_to_end == dict(run.END_TO_END), "BENCHMARK.json end_to_end"
    assert per_layer == dict(layers.PER_LAYER + run.UNBOUNDED), \
        "BENCHMARK.json per_layer"
    workloads = [entry["name"] for entry in benchmark["workloads"]]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-",
                                    dir=ROOT / ".perfbench_work"))
    try:
        out = scratch / "records.json"
        for workload in workloads:
            for trace, expected in ((0, end_to_end), (1, per_layer)):
                result = _result(_run(
                    "--workload", workload, "--seed", 1, "--seconds", 0,
                    "--trace", trace, "--smoke", "--out", out,
                    "--spans", scratch / f"spans-{workload}.jsonl"))
                assert result["correct"] and result["failed"] == 0, result
                assert result["attempted"] >= 1, result
                units = {name: metric["unit"]
                         for name, metric in result["metrics"].items()}
                assert units == expected, (workload, trace, units)
                print(f"ok  {workload} --trace {trace}: "
                      f"{len(units)} metrics, {result['attempted']} ops")
        records = json.loads(out.read_text())
        for record in records:
            names = [name for name, _, _ in record["checks"]]
            assert names and all(ok for _, ok, _ in record["checks"])
            if record["workload"] == "service-small-chunks":
                assert any("fleet curve == local" in n for n in names)
            else:
                assert "pinned-counts-exact" in names, names
                assert any("cached curves identical" in n for n in names)
        print(f"ok  {len(records)} records, every output check passed")

        # A seed without pinned counts falls back to the z-test.
        unpinned = _run("--workload", "genie-sweep", "--seed", 1000,
                        "--seconds", 0, "--smoke", "--out",
                        scratch / "unpinned.json")
        assert _result(unpinned)["correct"]
        checks = json.loads((scratch / "unpinned.json").read_text())[0]
        assert any(name.startswith("z-test") for name, _, _
                   in checks["checks"]), checks["checks"]
        print("ok  unpinned seed passes the z-test")

        compared = _run("--compare", out, out)
        assert compared.returncode == 0, compared.stdout + compared.stderr
        assert "pkt_per_s" in compared.stdout
        print("ok  compare mode")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        refused = _run("--workload", "genie-sweep", "--seed", 1,
                       "--seconds", 1, "--trace", 0, cwd=bare,
                       runner=bare / HERE.name / RUNNER.name)
        assert refused.returncode != 0
        assert not refused.stdout.strip(), refused.stdout
        print("ok  refuses to run without the source tree")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
