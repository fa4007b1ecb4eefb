"""BENCH-TRANSPORT — Result transport of the process fan-out.

Process fan-out can return results either by pickling them through the
executor pipe (historical) or by writing them into
``multiprocessing.shared_memory`` blocks (:mod:`repro.sim.shm`).  For
small scalar results the two are equivalent; the shared-memory path
exists for *bulk* results — a million-packet point's per-packet error
vector is an 8 MB ``int64`` array per point.  The benchmark isolates
exactly that round trip: a worker produces a 1M-packet result and hands
it back both ways.  Shared memory must win (acceptance: the shm fan-out
beats the pickling pool on a 1M-packet point).

It prints a table; the assert is deliberately conservative (min-of-N
timing) because this file runs inside the tier-1 suite on loaded
single-core CI boxes.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.metrics import BERPoint
from repro.sim.shm import ChunkResultBlock

from bench_utils import print_header

TRANSPORT_PACKETS = 1_000_000   # "a 1M-packet point"
TRANSPORT_ROUNDS = 5


# ----------------------------------------------------------------------
# Transport comparison: pickling pool vs shared-memory fan-out
# ----------------------------------------------------------------------
def _produce_point_result(seed: int,
                          num_packets: int = TRANSPORT_PACKETS):
    """A worker's view of one finished million-packet grid point: the
    scalar measurement plus the per-packet error vector (the bulk)."""
    rng = np.random.default_rng(seed)
    errors = (rng.random(num_packets) < 1e-3).astype(np.int64)
    measurement = BERPoint(ebn0_db=6.0, bit_errors=int(errors.sum()),
                           total_bits=num_packets * 64,
                           packets_sent=num_packets,
                           packets_failed=int(np.count_nonzero(errors)))
    return measurement, errors


def _produce_into_block(args) -> int:
    """Shared-memory return path: write the result in place, ship a slot."""
    block_name, seed = args
    measurement, errors = _produce_point_result(seed)
    block = ChunkResultBlock.attach(block_name)
    try:
        block.write_result(0, measurement, errors)
    finally:
        block.close()
    return 0


def _time_transports():
    # Allocate (and free) one block before forking so the workers inherit
    # the parent's shared-memory resource tracker — the same ordering
    # SweepEngine's shared-memory chunk scheduler guarantees.
    primer = ChunkResultBlock.allocate(1, 0)
    primer.close()
    primer.unlink()

    pickle_times = []
    shm_times = []
    with ProcessPoolExecutor(max_workers=1) as pool:
        pool.submit(_produce_point_result, 0).result()   # warm the worker
        for round_index in range(TRANSPORT_ROUNDS):
            start = time.perf_counter()
            measurement, errors = pool.submit(_produce_point_result,
                                              round_index).result()
            pickle_times.append(time.perf_counter() - start)
            assert errors.size == TRANSPORT_PACKETS
        for round_index in range(TRANSPORT_ROUNDS):
            block = ChunkResultBlock.allocate(1, TRANSPORT_PACKETS)
            try:
                start = time.perf_counter()
                pool.submit(_produce_into_block,
                            (block.name, round_index)).result()
                measurement, errors = block.read_result(0)
                shm_times.append(time.perf_counter() - start)
            finally:
                block.close()
                block.unlink()
            assert errors.size == TRANSPORT_PACKETS
    return min(pickle_times), min(shm_times)


@pytest.mark.benchmark(group="bench-backends")
def test_bench_shared_memory_beats_pickling_pool(benchmark):
    pickle_s, shm_s = benchmark.pedantic(_time_transports, rounds=1,
                                         iterations=1)
    speedup = pickle_s / max(shm_s, 1e-9)

    print_header("BENCH-TRANSPORT",
                 "1M-packet point result fan-out: pickling pool vs "
                 "shared memory")
    print(f"result payload : {TRANSPORT_PACKETS:,} packets "
          f"({TRANSPORT_PACKETS * 8 / 1e6:.0f} MB of per-packet error "
          "counts + the scalar record)")
    print(f"pickling pool  : {pickle_s * 1e3:8.1f} ms "
          f"(min of {TRANSPORT_ROUNDS})")
    print(f"shared memory  : {shm_s * 1e3:8.1f} ms "
          f"(min of {TRANSPORT_ROUNDS})")
    print(f"speedup        : {speedup:8.2f}x")

    # Both paths pay the identical result-construction cost; the delta is
    # pure transport.  Shared memory must beat the pickling pool.
    assert shm_s < pickle_s, (
        f"shared-memory fan-out ({shm_s * 1e3:.1f} ms) did not beat the "
        f"pickling pool ({pickle_s * 1e3:.1f} ms) on a "
        f"{TRANSPORT_PACKETS:,}-packet point")
