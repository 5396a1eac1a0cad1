"""CPU time at a fixed reference speed.

On a shared virtual machine the speed of a CPU second is not fixed: with
the load of other guests on the same cores, the same lmint call takes 25%
more or less CPU time from one minute to the next, in Python code and in
numpy alike (measured at the working point: est_general_cov plus sampling
ran 55-88 ms per call over one minute).  Each timing is therefore taken
between two runs of a fixed reference loop and scaled by
NOMINAL_S / (mean reference time), which reads the timing in seconds of a
machine on which the loop takes NOMINAL_S.  Over 20-30 s windows the
scaling cut the spread of per-call medians 1.5-3 fold (see the README).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from time import process_time

import numpy as np

#: CPU seconds of one reference loop on the machine the README figures come
#: from (a 2-vCPU virtual machine, Python 3.11.7, numpy 2.4.6), where it ran
#: 9-16 ms depending on the load of other guests.
NOMINAL_S = 0.012

_RECORDS = np.random.default_rng(0).standard_normal((100_000, 2))
_CHOL = np.linalg.cholesky(np.array([[2.0, 0.3], [0.3, 1.0]]))
_EYE = np.eye(2)


@dataclass(frozen=True)
class _Pair:
    angle: float
    gain: float


def _matrix(pair: _Pair) -> np.ndarray:
    c, s = math.cos(pair.angle), math.sin(pair.angle)
    return pair.gain * np.array([[c, -s], [s, c]])


def reference_loop() -> float:
    """CPU seconds of a fixed mix like lmint's: small frozen dataclasses and
    2x2 numpy algebra in a Python loop (the shape of `forward` and the
    estimators), then one pass over a 1e5-shot record (the shape of
    `sample` and `estimate_moments`)."""
    t0 = process_time()
    acc = 0.0
    for i in range(700):
        m = _matrix(_Pair(i * 1e-3, 1.0 + i * 1e-4))
        acc += float((m @ m.T + _EYE)[0, 1])
    pairs = _RECORDS @ _CHOL.T
    pairs.mean(axis=0)
    np.cov(pairs.T)
    return process_time() - t0


class Clock:
    """Times calls in reference-speed CPU seconds; the reference loop after
    one call is the one before the next."""

    def __init__(self):
        self.loops = []

    def timed(self, fn, *args):
        """Run fn(*args); returns (result, reference-speed seconds)."""
        if not self.loops:
            self.loops.append(reference_loop())
        before = self.loops[-1]
        t0 = process_time()
        result = fn(*args)
        spent = process_time() - t0
        self.loops.append(reference_loop())
        return result, spent * NOMINAL_S / (0.5 * (before + self.loops[-1]))
