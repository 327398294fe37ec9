"""A fixed reference kernel that measures how fast the machine runs now.

The benchmark runs on shared machines whose speed shifts for minutes at a
time: on a shared 2-vCPU virtual machine the best time of identical work
moved by up to 20% between consecutive runs.  The reference kernel is a
closure-style loop of bit-set tests over fixed data, the same kind of work
as implbase's hot loops, and it calls no implbase code.  Timed next to the
workload in the same run, it moved in step: the ratio of the two best times
stayed within about 4% over five runs.  Every end-to-end time is therefore
reported at the reference speed: measured time times ``NOMINAL_S`` over the
kernel's best time in the same phase of the run (set-up or timed passes),
from samples taken between its rounds or passes.  A change to implbase
moves the workload and not the kernel, so it shows in full.
"""

from __future__ import annotations

import time
from random import Random

#: Best time of one kernel call at the reference speed.
NOMINAL_S = 0.002

_rng = Random(2404)
_PAIRS = tuple(
    (_rng.getrandbits(24) & _rng.getrandbits(24) & _rng.getrandbits(24), _rng.getrandbits(24))
    for _ in range(400)
)


def kernel() -> int:
    acc = 0
    for q in range(90):
        bits = q * 2654435761 & 0xFFFFFF
        for lhs, rhs in _PAIRS:
            if lhs & bits == lhs:
                bits |= rhs
        acc ^= bits
    return acc


class Reference:
    """Kernel timings taken through one run, grouped into phases."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.scales: list[float] = []

    def mark(self) -> int:
        """Start a phase; pass the result to :meth:`scale` at its end."""
        return len(self.samples)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def scale(self, mark: int) -> float:
        """Factor from measured seconds to seconds at the reference speed for
        the phase that started at ``mark``, from the kernel's best time in it."""
        self.scales.append(NOMINAL_S / min(self.samples[mark:]))
        return self.scales[-1]
