import math
import random
from array import array

import pytest

from cayspec import _kernels
from cayspec._kernels import jacobi_diagonalize, symmetric_eigenvalues
from cayspec.errors import NoConvergence


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
    buf = array("d", [0.0, 1.0, 1.0, 0.0])
    assert jacobi_diagonalize(buf, 2, 1e-12, 0) == -1
    monkeypatch.setattr(_kernels, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence):
        symmetric_eigenvalues([[0.0, 1.0], [1.0, 0.0]])


def test_trace_preserved():
    rng = random.Random(5)
    rows = random_symmetric(9, rng)
    eig = symmetric_eigenvalues(rows)
    assert sum(eig) == pytest.approx(sum(rows[i][i] for i in range(9)), abs=1e-9)


def test_python_backend_direct_call():
    buf = array("d", [2.0, 1.0, 1.0, 2.0])
    sweeps = jacobi_diagonalize(buf, 2, 1e-12, 100)
    assert sweeps >= 0
    assert sorted([buf[0], buf[3]]) == pytest.approx([1.0, 3.0], abs=1e-12)
