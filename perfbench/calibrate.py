"""A fixed reference kernel that measures how fast the host is right now.

The host this benchmark runs on is shared: its speed moves by tens of
percent, in phases that last from seconds to minutes.  ``workload.py``
runs this kernel between requests, in as many threads at once as a
request runs on; a request's wall time divided by the kernel's time
around it, times ``nominal(threads)``, is the request's latency at a
fixed host speed (see README, "Host-speed normalization").

The kernel imports nothing from multilat, so a change to the package
never changes it.  It does the kinds of work the package spends its
time on, at a fixed size and with fixed data: GCC-PHAT over windowed
frames (small FFTs called from a Python loop) and Gauss-Newton steps
on a small range-difference system (small dense solves).
"""

import threading
import time

import numpy as np

#: the reference host speed: one kernel pass per thread takes this long
#: on it, per thread running.  A fixed scale, close to the kernel's
#: median time on a shared 2-core VM (Python 3.11, numpy 2.4), where
#: one pass took 15-40 ms as the host's speed moved
NOMINAL_S = 0.025

_rng = np.random.default_rng(20191023)
_SIGNALS = _rng.standard_normal((4, 32000))
_FRAME, _HOP, _MAX_LAG = 1024, 512, 40
_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(_FRAME) / _FRAME)
_MICS = _rng.uniform(-1.5, 1.5, (8, 3))
_SOURCE = np.array([0.3, -0.2, 0.5])


def _frames(x):
    n = 1 + (x.size - _FRAME) // _HOP
    idx = np.arange(_FRAME)[None, :] + _HOP * np.arange(n)[:, None]
    return x[idx] * _WINDOW[None, :]


def _gcc_lag(a, b):
    nfft = 2 * a.size
    spec = np.conj(np.fft.rfft(a, nfft)) * np.fft.rfft(b, nfft)
    mag = np.abs(spec)
    live = mag > 1e-12
    corr = np.fft.irfft(np.where(live, spec / np.where(live, mag, 1.0), 0.0),
                        nfft)
    window = np.concatenate([corr[-_MAX_LAG:], corr[:_MAX_LAG + 1]])
    return int(np.argmax(np.abs(window))) - _MAX_LAG


def _gauss_newton(steps=150):
    dist = np.linalg.norm(_MICS - _SOURCE, axis=1)
    rd = dist[1:] - dist[0]
    x = np.zeros(3)
    total = 0.0
    for _ in range(steps):
        d = np.linalg.norm(_MICS - x, axis=1)
        r = (d[1:] - d[0]) - rd
        u = (x - _MICS) / d[:, None]
        step, *_ = np.linalg.lstsq(u[1:] - u[0], -r, rcond=None)
        x = x + 0.5 * step
        total += float(r @ r)
    return total


def kernel():
    """One pass of the reference work; returns a checksum."""
    frames = [_frames(x) for x in _SIGNALS]
    total = 0
    for i, j in ((0, 1), (1, 2), (2, 3)):
        energy = float(np.median(np.sum(frames[i] ** 2, axis=-1)
                                 + np.sum(frames[j] ** 2, axis=-1)))
        for k in range(0, frames[i].shape[0], 2):
            a, b = frames[i][k], frames[j][k]
            if float(np.sum(a ** 2)) > 0.25 * energy:
                total += _gcc_lag(a, b)
    return total + _gauss_newton()


def nominal(threads):
    """The time ``measure(threads)`` takes on the reference host."""
    return NOMINAL_S * threads


def measure(threads=1):
    """Wall seconds of one kernel pass in each of ``threads`` threads.

    The passes run at once, so with more than one thread the time also
    covers their contention for the GIL, as a request's pool workers'
    does.
    """
    workers = [threading.Thread(target=kernel) for _ in range(threads - 1)]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    try:
        kernel()
    finally:
        for worker in workers:
            worker.join()
    return time.perf_counter() - started
