"""Fixed reference loops, timed between jobs, that read the machine's speed.

This machine is a share of a host: other tenants slow it, in phases that
last from a fraction of a second to whole runs, by up to 1.5x.  Timing the
same job in every run cannot tell that apart from a change to entswap.  So
the untraced run times a workload's reference loops before and after every
job and divides each job's times by the slowdown they show (``slowdown``,
the mean of the two readings): a job's time then reads as it would when
each loop takes its ``REFERENCE_S``.  Code that entswap does not run
cannot move the scaled figures; a change to entswap moves them as it moves
the raw ones.

The slow phases do not slow all code alike, so each workload is read by
the loops that do its kind of work, on nothing of entswap's:

* ``linalg``: small numpy arrays (draws, matrix products, an einsum over a
  16x16 operator, eigenvalues and singular values) and a little plain
  Python, as in the dense oracle and the POVM queries;
* ``csv``: building row dicts of floats and writing them as CSV to a file
  in the run's directory, as in record building and ``write_csv``.

Over 2.5 s windows of a 60 s run on a 2-vCPU Xeon VM, the Werner grid's
scaled job times spread 4 % with the ``csv`` loop but 10 % with ``linalg``
(12 % unscaled); the general oracle's spread 2 % with ``linalg`` but 9 %
with ``csv`` (14 % unscaled).
"""

from __future__ import annotations

import csv
import os
import statistics
import time

import numpy as np

# each loop's time on the reference machine: the unit the scaled times read in
REFERENCE_S = {"linalg": 0.010, "csv": 0.009}
LINALG_ROUNDS = 60
CSV_ROWS = 1500


def linalg_loop(workdir) -> float:
    """Run the small-array loop once; return its wall time in seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(LINALG_ROUNDS):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho = rho / rho.trace().real
        op = np.kron(rho, rho).reshape(4, 4, 4, 4)
        prod = np.einsum("abcd,cdef->abef", op, op).reshape(16, 16)
        acc += float(np.linalg.eigvalsh(rho)[0]) + float(np.linalg.svd(prod, compute_uv=False)[0])
        table = {k: k * 1.5 + acc for k in range(40)}
        acc += sum(table.values()) * 1e-9
    if not np.isfinite(acc):
        raise ArithmeticError("reference loop produced a non-finite value")
    return time.perf_counter() - t0


def csv_loop(workdir) -> float:
    """Build and write CSV_ROWS rows to a file in ``workdir``; return the wall time."""
    t0 = time.perf_counter()
    path = os.path.join(workdir, "reference.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(CSV_ROWS):
            x = (i * 0.618) % 1.0
            c = x * x / (1.0 + x) + max(0.0, x - 2 / 3)
            row = {"index": i, "n": i % 4, "eta": round(x, 6), "c": c, "f": (1 + 2 * c) / 3, "ok": c > 0}
            writer.writerow([row["index"], row["n"], f"{row['eta']:.12g}", f"{row['c']:.12g}",
                             f"{row['f']:.12g}", row["ok"]])
    os.remove(path)
    return time.perf_counter() - t0


LOOPS = {"linalg": linalg_loop, "csv": csv_loop}


def slowdown(kinds, workdir) -> float:
    """Run each named loop once; return the mean of its time over its reference time."""
    return statistics.fmean(LOOPS[kind](workdir) / REFERENCE_S[kind] for kind in kinds)
