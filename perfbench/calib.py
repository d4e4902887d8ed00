"""Host-speed calibration: fixed work that uses no entcert code.

On a shared host (a VM whose cores other tenants also use) the speed can
drift by 20-50 % within minutes, which moves every wall time of the program
alike. The benchmark therefore times fixed reference work next to the
ops and divides each op's time by the host's *slowness* around it: the
reference work's time over its time on the reference machine. The reported
times so read as seconds on the reference machine. A change to entcert
changes the ops and not the reference work, so it shows in full; a host
slowdown slows both and cancels out. The raw times are kept in the run's
``info`` line.

There are two kinds of reference work, matched to what is being timed:

- ``compute`` (in-process ops): small complex eigen-solves and matrix
  products through numpy plus interpreted Python (arithmetic, string
  formatting and parsing), about 40 ms.
- ``start`` (fresh interpreters: set-up, CLI commands): a new interpreter
  that imports numpy and exits, about 0.2 s.

Between ops a sample is taken once every ``every`` seconds of op time. Inside
an in-process op longer than that (the optimizer's), a timer interrupts it at
the same period to run the compute kernel, and the kernel's time is taken off
the op's. Each op is divided by the mean slowness from the last sample before
it to the first one after it.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

KERNEL_ROUNDS = 400
# The reference work's times that define slowness 1: about its median on the
# reference machine (README), the compute kernel 0.04 s, a fresh interpreter
# 0.2 s. Any fixed value serves; it only sets the scale of the reported times.
REF_S = {"compute": 0.040, "start": 0.25}

_rng = np.random.default_rng(7)
_A = _rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9))
_H = _A + _A.conj().T


def compute_s() -> float:
    """Seconds for one run of the compute kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(KERNEL_ROUNDS):
        w, v = np.linalg.eigh(_H)
        u = (v * np.exp(1j * w)) @ v.conj().T
        acc += float(np.trace(u @ _H @ u.conj().T).real)
        text = " ".join(f"{x!r},{-x!r}" for x in w[:4].tolist())
        acc += sum(float(tok.split(",")[0]) for tok in text.split())
        acc += sum(k * 0.5 for k in range(12))
    if not np.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - t0


def start_s() -> float:
    """Seconds for a fresh interpreter to import numpy and exit."""
    t0 = time.perf_counter()
    # a blocking wait: ``timeout=`` would poll in steps of up to 50 ms
    if subprocess.Popen([sys.executable, "-c", "import numpy"]).wait() != 0:
        raise RuntimeError("calibration interpreter failed")
    return time.perf_counter() - t0


KERNELS = {"compute": compute_s, "start": start_s}


def slowness(kind: str) -> float:
    """One sample of the host's slowness: reference work time / its REF_S."""
    return KERNELS[kind]() / REF_S[kind]


class Sampler:
    """Slowness samples over one closed loop of ops (see the module docstring)."""

    def __init__(self, kind: str, every: float):
        self.kind, self.every = kind, every
        self.samples: list[float] = []
        self.since = float("inf")   # op time since the last sample

    def take(self) -> float:
        """Take one sample; return the wall time that took."""
        t0 = time.perf_counter()
        self.samples.append(slowness(self.kind))
        self.since = 0.0
        return time.perf_counter() - t0

    def between(self) -> None:
        if self.since >= self.every:
            self.take()

    @contextmanager
    def during(self):
        """Wrap one timed op. Yields a dict whose ``paused`` is the time the
        timer's samples took inside the op, and whose ``first`` is the index
        of the last sample before it. Only the compute kernel interrupts an
        op; a ``start`` op waits on another process and is left alone."""
        span = {"first": len(self.samples) - 1, "paused": 0.0}
        interrupt = self.kind == "compute"

        def tick(signum, frame):
            span["paused"] += self.take()
            signal.setitimer(signal.ITIMER_REAL, self.every)

        old = signal.signal(signal.SIGALRM, tick) if interrupt else None
        if interrupt:
            signal.setitimer(signal.ITIMER_REAL, self.every)
        try:
            yield span
        finally:
            if interrupt:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)

    def mean(self, first: int, last: int) -> float:
        """Mean slowness over ``samples[first:last + 1]``."""
        return statistics.fmean(self.samples[first:last + 1])
