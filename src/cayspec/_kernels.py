"""Cyclic Jacobi eigensolver for dense symmetric matrices, in pure Python.

This is the numeric oracle: it diagonalizes an explicit matrix and shares
nothing with the exact character-sum route it is there to check.

The matrix is held as one flat row-major list while it is rotated.  Row p
is kept in a local for the whole loop over q: after each rotation it is the
new row p, and it is written back as its row once, when the loop ends.  A
rotation builds the new rows p and q from that local and a slice of row q in
two list comprehensions; it writes row q back as its row, and both as their
columns (every n-th entry from p or q); since the matrix stays exactly
symmetric, row p is column p.  The rows read before row p is written back
lie below it and meet it only in column p, which is kept current.  The
rotations, and every float operation in each, come in the same order as in
the element-wise loop over the buffer (kept as the reference in
tests/test_kernels.py), so the sweep count and the result are the same bit
for bit.
"""

from __future__ import annotations

from math import sqrt
from numbers import Real
from typing import Sequence

from cayspec.errors import InternalInconsistency

REL_TOL = 1e-12
MAX_SWEEPS = 100


def jacobi_diagonalize(a: list[float], n: int, max_sweeps: int) -> int:
    """Run cyclic Jacobi sweeps on the row-major n*n float list `a`, in place.

    Sweeps stop once the off-diagonal Frobenius mass drops to
    REL_TOL * ||A||_F.  Returns the number of sweeps used, or -1 when the
    budget of max_sweeps is exhausted first.  `a` must be exactly symmetric.
    """
    norm_f = 0.0
    for v in a:
        norm_f += v * v
    norm_f = sqrt(norm_f)
    threshold = REL_TOL * norm_f

    def off_mass() -> float:
        total = 0.0
        for p in range(n):
            for v in a[p * n + p + 1 : p * n + n]:
                total += 2.0 * v * v
        return sqrt(total)

    result = -1
    for sweep in range(max_sweeps):
        if off_mass() <= threshold:
            result = sweep
            break
        for p in range(n - 1):
            row_p = a[p * n : p * n + n]
            for q in range(p + 1, n):
                apq = row_p[q]
                if apq == 0.0:
                    continue
                app = row_p[p]
                aqq = a[q * n + q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                row_q = a[q * n : q * n + n]
                new_p = [c * x - s * y for x, y in zip(row_p, row_q)]
                new_q = [s * x + c * y for x, y in zip(row_p, row_q)]
                new_p[p] = app - t * apq
                new_q[q] = aqq + t * apq
                new_p[q] = 0.0
                new_q[p] = 0.0
                a[q * n : q * n + n] = new_q
                a[p::n] = new_p
                a[q::n] = new_q
                row_p = new_p
            a[p * n : p * n + n] = row_p
    else:  # the budget is used up: one last test
        if off_mass() <= threshold:
            result = max_sweeps
    return result


def symmetric_eigenvalues(rows: Sequence[Sequence[Real]]) -> list[float]:
    """Eigenvalues of a dense symmetric matrix, sorted descending; each entry
    is converted to float once.

    Raises InternalInconsistency when MAX_SWEEPS sweeps do not reach REL_TOL.
    """
    n = len(rows)
    buf = [float(v) for row in rows for v in row]
    if jacobi_diagonalize(buf, n, MAX_SWEEPS) < 0:
        raise InternalInconsistency(
            f"Jacobi sweeps did not converge within {MAX_SWEEPS} sweeps"
        )
    return sorted((buf[i * n + i] for i in range(n)), reverse=True)
