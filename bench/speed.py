"""Reference-speed scaling of every time the benchmark reports.

On a shared 2-vCPU virtual machine (2 GHz, Python 3.11.7) the same
CPU-bound Python work ran at speeds up to 1.7x apart within minutes, so raw
times of identical 30-second runs spread by 25-55 %.  A fixed
pure-Python kernel, timed inside the process doing the measured work while
that work runs, tracks the speed: each time is reported as

    measured_s * REFERENCE_S / kernel_s

i.e. in seconds at the speed where the kernel takes ``REFERENCE_S``.  The
kernel uses the operations the library spends its time on (exact-rational
arithmetic, dicts, tuple sorting) but no library code, so a change to
reidbasket cannot change the scale.  Time spent in the kernel is excluded
from the measured time.  Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.008  # about the kernel's median time on that VM
REPEATS = 3
INTERVAL_S = 0.5


def _kernel() -> object:
    acc = Fraction(0)
    seen: dict[tuple[int, int], int] = {}
    for i in range(1, 1500):
        acc += Fraction(i % 13, i % 17 + 2)
        key = (i % 29, i % 31)
        seen[key] = seen.get(key, 0) + 1
    return sorted(seen.items()), acc


def kernel_seconds() -> float:
    """Median time of a few kernel runs: the machine's speed right now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(samples: list[float]) -> float:
    """Factor turning a time measured amid these kernel samples into reference seconds."""
    return REFERENCE_S / statistics.mean(samples)


class Sampler:
    """Kernel samples every ``INTERVAL_S`` (by SIGALRM) while a block runs.

    The handler runs between bytecodes of whatever the process is doing;
    ``spent`` is the time taken by the samples, to subtract from the block.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
