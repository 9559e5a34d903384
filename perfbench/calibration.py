"""The calibration kernel that rescales timings to the reference machine.

The reference machine is a shared VM whose speed swings by up to 2x within
seconds, in CPU time as much as in wall time. A timing is divided by the
time of this fixed kernel, taken around it, and multiplied by the kernel's
time on the reference machine. The kernel is pure Python, so that a fresh
interpreter can time it before importing numpy: many small closures over a
list, like the program's per-round constraint evaluation, without calling
the program.
"""

import time

# Seconds the kernel takes on the reference machine.
REF_S = 0.07
ROUNDS = 1200


def calibrate() -> float:
    """Seconds taken by the kernel now."""
    t0 = time.perf_counter()
    x = [((i * 7919) % 1000) / 1000.0 for i in range(256)]
    comps = ([lambda v, k=k: -v[k] for k in range(256)]
             + [lambda v, m=m: sum(v[m:m + 16]) - 1.0 for m in range(0, 256, 16)])
    for _ in range(ROUNDS):
        values = [c(x) for c in comps]
        x[values.index(max(values)) % 256] *= 0.5
        mean = sum(x) / 256
        x = [0.999 * v + 1e-3 * mean for v in x]
    return time.perf_counter() - t0


def rescale(seconds: float, *kernel_seconds: float) -> float:
    """`seconds` at the reference machine's speed, given kernel times taken
    around it."""
    return seconds * REF_S * len(kernel_seconds) / sum(kernel_seconds)
