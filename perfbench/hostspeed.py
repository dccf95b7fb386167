"""Host-speed probe: a fixed kernel timed while the workload runs.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
a quarter or more over minutes, so the raw wall time of the same code
differs from run to run.  The probe times a small fixed kernel (pure
Python, numpy and a scipy sparse LU, none of it from concavelab) at
regular wall-clock intervals from a SIGALRM handler in the worker's own
thread, between the bytecodes of the workload, so nothing runs
concurrently with the program.  The time the kernel takes, against
``REFERENCE_KERNEL_S``, says how fast the host was while the items ran;
``normalize`` turns a wall time into the wall time at the reference
speed, which is what the benchmark reports.
"""

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: median kernel time on a quiet 2-vCPU Intel Xeon host; only a scale:
#: normalized times are seconds at this kernel speed
REFERENCE_KERNEL_S = 0.0075
#: seconds of wall clock between two kernel samples
INTERVAL_S = 0.2
#: share of the slowest and of the fastest samples left out of the mean
TRIM = 0.1

_N = 32
_ONE = sp.identity(_N, format="csr")
_TRI = sp.diags([-1.0, 2.1, -1.0], [-1, 0, 1], shape=(_N, _N))
_MATRIX = (sp.kron(_ONE, _TRI) + sp.kron(_TRI, _ONE)).tocsc()
_RHS = np.linspace(0.0, 1.0, _N * _N)
_VEC = np.linspace(0.5, 1.5, 100_000)


def kernel() -> float:
    """Run the fixed kernel once; return its checksum."""
    acc = 0
    for i in range(30_000):
        acc += (i * i) % 7
    x = _VEC
    for _ in range(6):
        x = np.sqrt(x * x + 0.5) * 0.5
    lu = spla.splu(_MATRIX)
    y = lu.solve(_RHS)
    return acc + float(x.sum()) + float(y.sum())


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(samples) -> float:
    """How much slower than the reference the host ran: the mean kernel
    time, without the TRIM slowest and fastest samples, over the
    reference kernel time.  Samples come at even wall-clock intervals,
    so their mean weighs each stretch of the run by its length."""
    samples = sorted(samples)
    k = int(len(samples) * TRIM)
    return statistics.fmean(samples[k:len(samples) - k]) / REFERENCE_KERNEL_S


def normalize(seconds: float, samples) -> float:
    """A wall time scaled to the reference host speed."""
    return seconds / speed_factor(samples)


class Sampler:
    """Times the kernel every INTERVAL_S seconds of wall clock between
    start() and stop(); ``samples`` are the kernel times and ``spent``
    their sum, which the caller takes off its own wall time."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t = time_kernel()
        self.samples.append(t)
        self.spent += t

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
