"""Cyclic Jacobi eigensolver for dense symmetric matrices, in pure Python.

This is the numeric oracle: it diagonalizes an explicit matrix and shares
nothing with the exact character-sum route it is there to check.
"""

from __future__ import annotations

from array import array
from math import sqrt
from typing import Sequence

from cayspec.errors import NoConvergence

REL_TOL = 1e-12
MAX_SWEEPS = 100


def jacobi_diagonalize(a, n: int, rel_tol: float, max_sweeps: int) -> int:
    """Run cyclic Jacobi sweeps in place on the row-major n*n buffer `a`.

    Sweeps stop once the off-diagonal Frobenius mass drops to
    rel_tol * ||A||_F.  Returns the number of sweeps used, or -1 when the
    budget of max_sweeps is exhausted first.
    """
    norm_f = 0.0
    for i in range(n):
        base = i * n
        for j in range(n):
            v = a[base + j]
            norm_f += v * v
    norm_f = sqrt(norm_f)
    threshold = rel_tol * norm_f

    def off_mass() -> float:
        total = 0.0
        for p in range(n):
            base = p * n
            for q in range(p + 1, n):
                v = a[base + q]
                total += 2.0 * v * v
        return sqrt(total)

    for sweep in range(max_sweeps):
        if off_mass() <= threshold:
            return sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p * n + q]
                if apq == 0.0:
                    continue
                app = a[p * n + p]
                aqq = a[q * n + q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                a[p * n + p] = app - t * apq
                a[q * n + q] = aqq + t * apq
                a[p * n + q] = 0.0
                a[q * n + p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip = a[i * n + p]
                    aiq = a[i * n + q]
                    a[i * n + p] = c * aip - s * aiq
                    a[p * n + i] = a[i * n + p]
                    a[i * n + q] = s * aip + c * aiq
                    a[q * n + i] = a[i * n + q]
    if off_mass() <= threshold:
        return max_sweeps
    return -1


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
