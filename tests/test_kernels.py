import math
import random
from array import array
from math import sqrt

import pytest

from cayspec import _kernels
from cayspec._kernels import jacobi_diagonalize, symmetric_eigenvalues
from cayspec.errors import InternalInconsistency
from cayspec.groups import make_cyclic, make_dihedral, make_from_generators, make_product
from cayspec.spectra import adjacency_matrix
from conftest import random_class_function


def random_symmetric(n, rng):
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.uniform(-2, 2)
    return rows


def test_zero_matrix():
    assert symmetric_eigenvalues([[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]


def test_one_by_one():
    assert symmetric_eigenvalues([[3.5]]) == [3.5]


def test_swap_matrix():
    eig = symmetric_eigenvalues([[0.0, 1.0], [1.0, 0.0]])
    assert eig == pytest.approx([1.0, -1.0], abs=1e-12)


def test_pentagon_closed_form():
    n = 5
    rows = [[1.0 if (i - j) % n in (1, 4) else 0.0 for j in range(n)] for i in range(n)]
    eig = symmetric_eigenvalues(rows)
    expected = sorted((2 * math.cos(2 * math.pi * k / n) for k in range(n)), reverse=True)
    assert eig == pytest.approx(expected, abs=1e-10)


def test_no_convergence_signalled(monkeypatch):
    buf = [0.0, 1.0, 1.0, 0.0]
    assert jacobi_diagonalize(buf, 2, 0) == -1
    monkeypatch.setattr(_kernels, "MAX_SWEEPS", 0)
    with pytest.raises(InternalInconsistency, match="^Jacobi sweeps did not converge within 0 sweeps$"):
        symmetric_eigenvalues([[0.0, 1.0], [1.0, 0.0]])


def test_trace_preserved():
    rng = random.Random(5)
    rows = random_symmetric(9, rng)
    eig = symmetric_eigenvalues(rows)
    assert sum(eig) == pytest.approx(sum(rows[i][i] for i in range(9)), abs=1e-9)


def test_python_backend_direct_call():
    buf = [2.0, 1.0, 1.0, 2.0]
    sweeps = jacobi_diagonalize(buf, 2, 100)
    assert sweeps >= 0
    assert sorted([buf[0], buf[3]]) == pytest.approx([1.0, 3.0], abs=1e-12)


def reference_jacobi_diagonalize(a, n: int, rel_tol: float, max_sweeps: int) -> int:
    """The element-wise cyclic Jacobi loop the row-form kernel must match bit for bit."""
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


def bit_identity_corpus():
    """Symmetric matrices with zero entries and repeated eigenvalues, n = 1..40,
    plus adjacency matrices of cyclic, dihedral and product groups."""
    rng = random.Random(20261018)
    matrices = []
    for n in range(1, 41):
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice([0.0, 0.0, 1.0, -2.0, rng.uniform(-2, 2)])
        matrices.append(rows)
        # A scaled all-ones block on the diagonal: eigenvalue 0 repeated n-1 times.
        matrices.append([[1.5] * n for _ in range(n)])
    groups = [make_cyclic(12), make_cyclic(25), make_dihedral(6), make_dihedral(10),
              make_product(make_cyclic(4), make_cyclic(6)),
              # Z2 x D4: Z2 swaps {0, 1}, D4 moves the square {2, 3, 4, 5}.
              make_from_generators([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2), (0, 1, 2, 5, 4, 3)])]
    for G in groups:
        for _ in range(2):
            f = random_class_function(G, rng)
            matrices.append([[float(v) for v in row] for row in adjacency_matrix(f)])
    return matrices


def test_row_form_matches_flat_reference_bit_for_bit():
    for rows in bit_identity_corpus():
        n = len(rows)
        flat = [v for row in rows for v in row]
        for max_sweeps in (100, 1):
            # The kernel rotates a float list in place; the reference, an
            # array("d") whose bytes are those of the doubles.
            buf = list(flat)
            ref = array("d", flat)
            got = jacobi_diagonalize(buf, n, max_sweeps)
            assert got == reference_jacobi_diagonalize(ref, n, 1e-12, max_sweeps), n
            assert array("d", buf).tobytes() == ref.tobytes(), n
