"""Output checks for the local workloads: pinned counts, else a z-test.

``pinned.json`` holds, per workload and layout digest (points, packet
budget, chunking, payload size), the bit and packet error counts of
every grid point for a set of seeds, with each seed's engine
``config_digest``.  A run whose seed is pinned and whose
config digests are unchanged must reproduce the pinned counts exactly.
Any other run (an unpinned seed, or a code change that legitimately
changes the random stream, such as drawing noise only at the kept ADC
samples) must pass, at every point, the two-proportion z-test that
``python -m repro query --validate`` uses (p >= 1e-6) against the pooled
pinned seeds.  The test's variance is widened by the between-seed
dispersion the pinned seeds show, since multipath points draw few
channel realizations and their errors cluster by realization.

Regenerate the pins after changing a workload's layout with
``python3 perfbench/run.py --workload NAME --pin 0-15``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pinned.json"

#: Smallest p-value the z-test accepts (the ``query --validate`` default).
P_THRESHOLD = 1e-6


def layout_digest(grids) -> str:
    """Digest of everything but the seed that shapes a workload's counts."""
    payload = [grid.layout() for grid in grids]
    return hashlib.sha256(json.dumps(payload, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def counts_of(entries) -> list[list[int]]:
    """``[bit_errors, packets_failed, total_bits, packets_sent]`` per point."""
    return [[int(m.bit_errors), int(m.packets_failed), int(m.total_bits),
             int(m.packets_sent)] for _, m in entries]


def load_pins() -> dict:
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def save_pins(workload: str, layout: str, seeds: dict) -> None:
    pins = load_pins()
    pins.setdefault(workload, {})[layout] = seeds
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def z_test_p(errors: int, bits: int, reference) -> float:
    """Two-sided p-value that ``errors``/``bits`` shares the BER of the
    pooled ``reference`` ``(errors, bits)`` samples, with the variance
    widened by their between-sample dispersion (never narrowed)."""
    ref_errors = sum(e for e, _ in reference)
    ref_bits = sum(n for _, n in reference)
    pooled = (errors + ref_errors) / (bits + ref_bits)
    if pooled in (0.0, 1.0):
        return 1.0
    dispersion = 1.0
    if len(reference) >= 2 and 0 < ref_errors < ref_bits:
        p_ref = ref_errors / ref_bits
        chi2 = sum((e - n * p_ref) ** 2 / (n * p_ref * (1 - p_ref))
                   for e, n in reference)
        dispersion = max(1.0, chi2 / (len(reference) - 1))
    variance = dispersion * pooled * (1 - pooled) * (1 / bits + 1 / ref_bits)
    z = (errors / bits - ref_errors / ref_bits) / math.sqrt(variance)
    return math.erfc(abs(z) / math.sqrt(2.0))


def check_counts(workload: str, layout: str, seed: int,
                 digests: list[str], counts: dict) -> list[tuple]:
    """Check one run's per-grid counts; returns ``(name, ok, detail)``
    tuples, one per check made."""
    seeds = load_pins().get(workload, {}).get(layout)
    if not seeds:
        return [("pinned-counts", False,
                 f"no pinned counts for this {workload} layout; "
                 f"regenerate with --pin")]
    pinned = seeds.get(str(seed))
    if pinned is not None and pinned["digests"] == digests:
        ok = pinned["counts"] == counts
        return [("pinned-counts-exact", ok,
                 "" if ok else f"counts {counts} != pinned "
                               f"{pinned['counts']}")]
    results = []
    references = [entry for key, entry in seeds.items()
                  if key != str(seed)]
    for label, rows in counts.items():
        for index, (errors, _, bits, _) in enumerate(rows):
            reference = [(entry["counts"][label][index][0],
                          entry["counts"][label][index][2])
                         for entry in references]
            p_value = z_test_p(errors, bits, reference)
            results.append((f"z-test {label}[{index}]",
                            p_value >= P_THRESHOLD, f"p={p_value:.2e}"))
    return results
