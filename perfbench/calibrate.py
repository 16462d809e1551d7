"""Machine-speed calibration for wall times measured on a shared host.

On a host shared with other tenants the same Python code runs at speeds
that change by up to ~1.8x from one second to the next, and CPU time moves
with wall time, so neither shows the program alone. The benchmark therefore
runs a fixed reference loop next to every timed operation and reports each
wall time scaled to the speed at which that loop takes its nominal time:

    scaled = measured * nominal_ms / (reference loop's time around it)

A workload names the reference that slows down the way it does: ``python``
(interpreter-bound: small ints, tuples, dicts, frozensets) for the symbolic
workloads, ``memory`` (streaming XOR over 8 MiB of big ints, beyond the
per-core L2) for the 64 KiB payload workload, which shares the last-level
cache and memory bandwidth with the host's other tenants.

The loops live here, not in the program, so a change to the program moves
the scaled times and a change in machine speed mostly does not. The raw
wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

MEMORY_MIB = 8


def _python_work() -> int:
    """Fixed interpreter-bound work: small ints and xor, tuples, dicts,
    frozensets and sorting."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(3500):
        acc = (acc * 31 + i) & 0xFFFF
        key = (acc & 255, i & 7)
        table[key[0]] = table.get(key[0], 0) ^ acc
        if frozenset(key) & {1, 2, 3}:
            acc ^= len(key)
    return acc + sum(v for _, v in sorted(table.items())[:16])


_memory_blocks: list[int] = []


def _memory_work() -> int:
    """Fixed memory-bound work: XOR a stream of 64 KiB ints, 8 MiB in all.
    The blocks are built on first use and kept, so they count towards the
    process's resident memory."""
    if not _memory_blocks:
        _memory_blocks.extend(int.from_bytes(bytes([i % 251 + 1]) * 65536, "big") for i in range(16 * MEMORY_MIB))
    acc = 0
    for block in _memory_blocks:
        acc ^= block
    return acc & 0xFF


# name -> (work, its wall time in ms at the speed that scaled times are expressed at,
#          whether an untimed pass warms the caches first). The memory loop is
# timed warm: run cold, it would also time how much of the cache the program's
# last operation evicted, and so cancel part of a change to the program.
REFERENCES = {
    "python": (_python_work, 2.0, False),
    "memory": (_memory_work, 2.0, True),
}


class Reference:
    def __init__(self, name: str):
        self.name = name
        self._work, self.nominal_ms, self._warm_up = REFERENCES[name]
        self._work()  # builds what the work needs before anything is timed

    def sample_ms(self) -> float:
        """Wall time of one run of the reference loop, in ms."""
        if self._warm_up:
            self._work()
        start = time.perf_counter()
        self._work()
        return 1000 * (time.perf_counter() - start)

    def scale_factors(self, samples: list[float]) -> list[float]:
        """Per-operation factors from samples taken before each of n operations
        and once after the last (n + 1 samples): operation i is scaled by the
        mean of the samples just before and just after it. The machine's speed
        changes within a second, so wider windows tracked it worse."""
        return [2 * self.nominal_ms / (before + after) for before, after in zip(samples, samples[1:])]

    def point_factor(self, samples: int = 15) -> float:
        """Factor for one stretch of work: median of ``samples`` reference runs."""
        return self.nominal_ms / statistics.median(self.sample_ms() for _ in range(samples))
