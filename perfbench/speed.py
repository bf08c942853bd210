"""Machine-speed calibration of the benchmark's timings.

On a shared host the speed of a core drifts: identical work can take 70% longer
for seconds to minutes at a time, in user time as much as in wall time, with no
steal time, while other tenants load the machine. A run of under a minute can
fall in a fast or a slow spell, so raw wall-clock medians of whole runs spread
by up to 0.58 of their median (interquartile range over a few seeds), more
than the benchmark's bounds allow.

So while a workload runs, an interval timer interrupts it 20 times a second and
times a fixed probe kernel, which is part of the benchmark and not of
signweave, in the workload's own thread. A sample's calibrated time is its wall
time, less the probes that ran inside it, scaled by `REFERENCE_S` over the
median time of the probes that ran inside it (or of the last `MIN_PROBES`
probes, if fewer ran inside): the seconds it would take at the speed at which
the probe takes `REFERENCE_S`. A change to signweave moves the sample and not
the probe, so it shows in full; a slow spell of the machine moves both, and
mostly cancels. The raw wall times and median probe times are kept in the
result file beside the calibrated times.

The probe runs in the caches the workload has just used, and that is what makes
it follow the slow spells: a probe warmed up by an untimed run first tracked
them no better than the raw wall time did. So a change that alters how much
memory the workload touches can move the probe a little as well.

The kernel mixes what signweave spends its time on: interpreter loops over
numpy scalars (the pure-Python DTW), small float32 dense layers with their
gradients (duration predictor training), attention over a motion clip's frames
(the denoiser), and JSON encoding and parsing (records).
"""
from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

# seconds one probe takes at the reference speed: about its median inside the
# workloads on the two-core x86_64 machine the benchmark was written on
REFERENCE_S = 0.002
INTERVAL_S = 0.05
MIN_PROBES = 5

_rng = np.random.default_rng(20260518)
_A = _rng.standard_normal((6, 6))
_B = _rng.standard_normal((9, 6))
_X = _rng.standard_normal((16, 32)).astype(np.float32)
_W = (0.1 * _rng.standard_normal((32, 32))).astype(np.float32)
_M = _rng.standard_normal((48, 206)).astype(np.float32)
_P = (0.05 * _rng.standard_normal((206, 64))).astype(np.float32)
_DOC = [{"id": f"c{i:03d}", "frames": _rng.standard_normal(12).round(4).tolist(), "tag": "WORK"}
        for i in range(15)]


def kernel() -> float:
    """A fixed mix of interpreter, small-array and JSON work."""
    cost = ((_A[:, None, :] - _B[None, :, :]) ** 2).sum(-1)
    acc = np.full((cost.shape[0] + 1, cost.shape[1] + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(cost.shape[0]):
        for j in range(cost.shape[1]):
            options = (acc[i, j], acc[i, j + 1], acc[i + 1, j])
            best = int(np.argmin(options))
            acc[i + 1, j + 1] = options[best] + cost[i, j]
    x, w = _X, _W
    for _ in range(14):
        h = np.tanh(x @ w)
        grad = (1.0 - h * h) @ w.T
        x = 0.5 * x + 0.5 * h
        w = w - 1e-3 * (x.T @ grad) / len(x)
    out = 0.0
    for _ in range(3):
        h = _M @ _P
        h = (h - h.mean(-1, keepdims=True)) / (h.std(-1, keepdims=True) + 1e-5)
        q = h.reshape(len(h), 4, 16).transpose(1, 0, 2)
        att = q @ q.transpose(0, 2, 1) / 4.0
        att = np.exp(att - att.max(-1, keepdims=True))
        att /= att.sum(-1, keepdims=True)
        h = (att @ q).transpose(1, 0, 2).reshape(len(h), 64)
        out += float(((np.tanh(h) @ _P.T) * _M).sum())
    parsed = json.loads(json.dumps(_DOC))
    return float(acc[-1, -1]) + float(x.sum()) + out + len(parsed)


class Clock:
    """Times samples, calibrated to the reference speed.

    `start` installs the probe timer and `stop` removes it. `raw` keeps, per
    label, every sample's wall seconds and its median probe seconds, in the
    order timed.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end) of every probe
        self.raw: dict[str, list[tuple[float, float]]] = {}
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.probes.append((t0, time.perf_counter()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def time(self, label: str, fn):
        """Run `fn()`; return its calibrated seconds and its result."""
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        inside = [end - start for start, end in self.probes if t0 <= start and end <= t1]
        window = inside if len(inside) >= MIN_PROBES else [
            end - start for start, end in self.probes if end <= t1][-MIN_PROBES:]
        while len(window) < MIN_PROBES:  # too early in the run: probe now
            self._probe()
            window.append(self.probes[-1][1] - self.probes[-1][0])
        speed = statistics.median(window)
        wall = t1 - t0
        self.raw.setdefault(label, []).append((wall, speed))
        return (wall - sum(inside)) * REFERENCE_S / speed, result
