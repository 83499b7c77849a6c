"""Cyclic Jacobi eigensolver for dense symmetric matrices, in pure Python.

This is the numeric oracle: it diagonalizes an explicit matrix and shares
nothing with the exact character-sum route it is there to check.

The matrix is held as one flat row-major list while it is rotated.  A
rotation builds the new rows p and q from two row slices in two list
comprehensions, and writes each back twice by slice assignment: as its row,
and as its column (every n-th entry from p or q); since the matrix stays
exactly symmetric, row p is column p.  The rotations, and every float
operation in each, come in the same order as in the element-wise loop over
the buffer (kept as the reference in tests/test_kernels.py), so the sweep
count and the result are the same bit for bit.
"""

from __future__ import annotations

from array import array
from math import sqrt
from typing import Sequence

from cayspec.errors import NoConvergence

REL_TOL = 1e-12
MAX_SWEEPS = 100


def jacobi_diagonalize(a, n: int, rel_tol: float, max_sweeps: int) -> int:
    """Run cyclic Jacobi sweeps on the row-major n*n array("d") buffer `a`.

    The rotated matrix is written back into `a`.  Sweeps stop once the
    off-diagonal Frobenius mass drops to rel_tol * ||A||_F.  Returns the
    number of sweeps used, or -1 when the budget of max_sweeps is exhausted
    first.  `a` must be exactly symmetric.
    """
    m = list(a)
    norm_f = 0.0
    for v in m:
        norm_f += v * v
    norm_f = sqrt(norm_f)
    threshold = rel_tol * norm_f

    def off_mass() -> float:
        total = 0.0
        for p in range(n):
            for v in m[p * n + p + 1 : p * n + n]:
                total += 2.0 * v * v
        return sqrt(total)

    result = -1
    for sweep in range(max_sweeps):
        if off_mass() <= threshold:
            result = sweep
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p * n + q]
                if apq == 0.0:
                    continue
                app = m[p * n + p]
                aqq = m[q * n + q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                row_p = m[p * n : p * n + n]
                row_q = m[q * n : q * n + n]
                new_p = [c * x - s * y for x, y in zip(row_p, row_q)]
                new_q = [s * x + c * y for x, y in zip(row_p, row_q)]
                new_p[p] = app - t * apq
                new_q[q] = aqq + t * apq
                new_p[q] = 0.0
                new_q[p] = 0.0
                m[p * n : p * n + n] = new_p
                m[q * n : q * n + n] = new_q
                m[p::n] = new_p
                m[q::n] = new_q
    else:  # the budget is used up: one last test
        if off_mass() <= threshold:
            result = max_sweeps
    a[:] = array("d", m)
    return result


def symmetric_eigenvalues(rows: Sequence[Sequence[float]]) -> list[float]:
    """Eigenvalues of a dense symmetric matrix, sorted descending.

    Raises NoConvergence when MAX_SWEEPS sweeps do not reach REL_TOL.
    """
    n = len(rows)
    buf = array("d", (float(v) for row in rows for v in row))
    if jacobi_diagonalize(buf, n, REL_TOL, MAX_SWEEPS) < 0:
        raise NoConvergence(
            f"Jacobi sweeps did not converge within {MAX_SWEEPS} sweeps"
        )
    return sorted((buf[i * n + i] for i in range(n)), reverse=True)
