"""Host-speed calibration: a fixed piece of numpy work timed next to every operation.

Other tenants of the 2-vCPU host the benchmark was defined on switch it
between a calm state and a slow one, about 1.6x slower for lpx's operations.
A state holds for a second to over a minute, so whole runs can fall in either,
and no statistic of one run's raw times removes it.  Both vCPUs change state
together, so pinning to one does not help either.  ``calibrate`` does small
complex FFTs and roll-and-max sweeps, the numpy calls lpx's operations spend
their time in, on fixed inputs; its time in the slow state grows by about the
same factor as theirs (1.53x against 1.58x and 1.60x for verify-1d's and
decompose-1d's operations).  An operation's time divided by the calibration's
time next to it is therefore nearly the same in both states, and multiplied by
``REFERENCE_WALL_S`` it reads in seconds of the defining host when calm.

The kernel uses no lpx code, so a change to lpx never changes it, and it
binds the numpy.fft functions at import, so the traced run's FFT counters never
count it.
"""

from __future__ import annotations

import time

import numpy as np

_fft, _ifft = np.fft.fft, np.fft.ifft
_rng = np.random.default_rng(20261017)
_SIGNAL = _rng.standard_normal(256) + 1j * _rng.standard_normal(256)
_ROWS = _rng.standard_normal((20, 64))
SWEEPS = 360

# calm-host times of one calibrate() call (the 2nd percentile of 2000 calls on
# the defining host, a 2-vCPU Xeon VM at 2.0 GHz); constants, so every commit
# is scaled alike
REFERENCE_WALL_S = 0.00845
REFERENCE_CPU_S = 0.00845


def calibrate() -> tuple[float, float]:
    """Wall and process CPU time of one fixed calibration kernel."""
    w, c = time.perf_counter(), time.process_time()
    acc = _ROWS.copy()
    for shift in range(SWEEPS):
        _ifft(_fft(_SIGNAL) * 0.5)
        np.maximum(acc, np.roll(_ROWS, shift % 64, axis=1), out=acc)
    return time.perf_counter() - w, time.process_time() - c
