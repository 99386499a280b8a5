"""Reference kernels that gauge the host's speed during a run.

The benchmark runs on shared hosts whose speed drifts by a factor of two
or more over minutes, far more than most changes to the program make.
So before the first round of operations and after each one, a run times
a fixed kernel written here in numpy and Python, with no code of the
program under test.  Operation times are then reported in reference seconds:

    reported = measured * REFERENCE_S[kind] / mean(kernel times just before and after)

A program change moves the operation times and not the kernel, so it
shows in full; a host that runs everything 2x slower moves both and
cancels.  Slow spells do not slow all work alike: big-array numpy slows
more than interpreter-bound code, and page faults on fresh memory (system
time) more than either.  So each workload's kernel mixes three parts in
about the shares its operations spend on them:

- ``interp``: many small numpy calls on 4097-point arrays and a Python
  loop, like ``analyze`` at the default grid, the ``mc_mi`` trial loop
  and module imports;
- ``stream``: entropies over a 500,000 x 3 probability grid, like the
  wiretap simplex tables and the oracle's 4096 x 4096 enumeration, in
  preallocated buffers so its time does not hang on the state the
  program leaves the allocator in;
- ``fresh``: first touches of fresh 4 KiB pages from a private mapping of
  its own, the page faults the program's numpy temporaries take.  The
  system-time share of each kernel matches that of its workload's
  operations (about 4 % on phase-sweep, 12-14 % on oracle and wiretap).
"""

from __future__ import annotations

import math
import mmap
import statistics
import time

import numpy as np

# (part, amount): interp in blocks of 720 steps, stream in blocks of three
# passes over the grid, fresh in MiB
KINDS = {
    "phase-sweep": (("interp", 2), ("fresh", 8)),
    "oracle": (("interp", 1), ("stream", 1), ("fresh", 40)),
    "wiretap": (("stream", 1), ("fresh", 32)),
    "setup": (("interp", 2), ("fresh", 8)),
}

# Fixed constants of the order of each kernel's time inside a run on the
# reference host (2 vCPU Xeon at 2.1 GHz, one BLAS thread) in its faster
# spells.  A host that runs the kernel in exactly this time reports wall
# seconds; only the ratio to a run's kernel times matters.
REFERENCE_S = {"phase-sweep": 0.055, "oracle": 0.075, "wiretap": 0.045, "setup": 0.052}

_GRID_POINTS = 500_000
_SMALL = 4097
_PAGE = 4096


class Gauge:
    """Times the kernel of one kind and keeps every sample of the run."""

    def __init__(self, kind: str):
        self.kind = kind
        self.parts = KINDS[kind]
        if any(part == "stream" for part, _ in self.parts):
            rng = np.random.default_rng(12345)
            grid = rng.random((_GRID_POINTS, 3))
            self.grid = grid / grid.sum(axis=1, keepdims=True)
            w = rng.random((3, 3)) + 0.1
            self.w = w / w.sum(axis=1, keepdims=True)
            self.p = np.empty_like(self.grid)
            self.q = np.empty_like(self.grid)
            self.h = np.empty(_GRID_POINTS)
        self.small = np.linspace(0.0, 4.0, _SMALL)
        self.samples: list = []
        self.sample()          # untimed warm-up of the code paths
        self.samples.clear()

    def _interp(self, blocks: int) -> float:
        acc = 0.0
        for i in range(720 * blocks):
            e = np.exp(-(0.5 + 0.001 * (i % 720)) * self.small)
            z = e.sum()
            cum = np.cumsum(e / z)
            acc += float(np.searchsorted(cum, 0.5)) + float(np.log(e + 1e-300).max())
            for j in range(150):
                acc += math.sqrt(j + i) * 1e-9
        return acc

    def _stream(self, blocks: int) -> float:
        acc = 0.0
        for _ in range(3 * blocks):
            np.matmul(self.grid, self.w, out=self.p)
            np.maximum(self.p, 1e-300, out=self.q)
            np.log(self.q, out=self.q)
            np.multiply(self.p, self.q, out=self.q)
            np.sum(self.q, axis=1, out=self.h)
            acc -= float(self.h.min())
        return acc

    def _fresh(self, mib: int) -> float:
        mapping = mmap.mmap(-1, mib << 20, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        pages = np.frombuffer(mapping, dtype=np.uint8)
        pages[::_PAGE] = 1
        touched = float(pages[::_PAGE].sum())
        del pages
        mapping.close()
        return touched

    def sample(self) -> float:
        start = time.perf_counter()
        for part, amount in self.parts:
            getattr(self, "_" + part)(amount)
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def median(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Factor to reference seconds for the work between the last two samples."""
        return 2.0 * REFERENCE_S[self.kind] / (self.samples[-2] + self.samples[-1])
