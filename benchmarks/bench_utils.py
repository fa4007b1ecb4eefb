"""Formatting helpers shared by the benchmark files.

Each benchmark regenerates one figure or quantitative claim of the paper
(see DESIGN.md section 4); these helpers keep the printed output uniform so
EXPERIMENTS.md can quote it directly.

:func:`required_speedup` is the shared timing-floor policy: speedup
assertions are derated on hosts with fewer than two usable CPUs (where
measured ratios drift with scheduler contention — the way the fullstack
benchmarks went flaky inside full-suite runs on small boxes) unless
``REPRO_BENCH_STRICT=1`` enforces the calibrated floors.  Parity and
correctness assertions are never derated.
"""

import os

__all__ = ["print_header", "print_table", "format_ber",
           "required_speedup", "usable_cpus", "DERATED_SPEEDUP"]

#: Timing floor on hosts that cannot reproduce the calibrated speedups
#: (< 2 usable CPUs, REPRO_BENCH_STRICT unset): the fast path must still
#: beat the reference, just not by the calibrated margin.
DERATED_SPEEDUP = 1.0


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def required_speedup(nominal: float) -> tuple[float, str]:
    """The timing floor this host must meet, and why.

    With ``REPRO_BENCH_STRICT=1`` the nominal (calibrated) floor always
    applies; otherwise hosts with fewer than two usable CPUs fall back
    to :data:`DERATED_SPEEDUP` — a 1-CPU or affinity-restricted box
    cannot reproduce a calibrated ratio, its timings are at the mercy of
    whatever else the machine is doing.  Only timing assertions go
    through this; parity assertions are unconditional.
    """
    if os.environ.get("REPRO_BENCH_STRICT", "").strip() == "1":
        return nominal, "strict (REPRO_BENCH_STRICT=1)"
    cpus = usable_cpus()
    if cpus >= 2:
        return nominal, f"calibrated floor ({cpus} usable CPUs)"
    return DERATED_SPEEDUP, (
        f"derated: only {cpus} usable CPU(s) — the calibrated "
        f">= {nominal:.0f}x floor needs an uncontended timing host "
        "(set REPRO_BENCH_STRICT=1 to enforce it anyway)")


def print_header(experiment_id: str, description: str) -> None:
    """Print a banner naming the experiment being regenerated."""
    print()
    print("=" * 72)
    print(f"[{experiment_id}] {description}")
    print("=" * 72)


def print_table(headers, rows) -> None:
    """Print a simple aligned table."""
    widths = [max(len(str(h)), *(len(str(row[i])) for row in rows))
              for i, h in enumerate(headers)]
    line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i])
                        for i, cell in enumerate(row)))


def format_ber(ber: float) -> str:
    """Format a BER for table output."""
    if ber <= 0:
        return "<1e-4"
    return f"{ber:.2e}"
