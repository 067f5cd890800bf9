"""
Small exact linear algebra over field-like coefficient types.

All routines work generically for coefficient objects supporting +, -, *,
/ (or .inverse()), is_zero() and equality — in practice CycQ and RatFunc.
Matrices are lists of lists; nothing here mutates its arguments.
"""

from __future__ import annotations

from .qpoly import ArithmeticInvariantError, QPoly, RatFunc


def _is_zero(x) -> bool:
    return x.is_zero() if hasattr(x, "is_zero") else x == 0


def solve_linear(matrix, rhs):
    """Solve matrix @ x = rhs for a square nonsingular matrix.

    ``rhs`` is a vector; returns the solution vector in the same coefficient
    type.  Raises ArithmeticInvariantError on a singular matrix.
    """
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not _is_zero(aug[r][col])), None)
        if pivot is None:
            raise ArithmeticInvariantError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = _inverse(aug[col][col])
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not _is_zero(aug[r][col]):
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _inverse(x):
    if hasattr(x, "inverse"):
        return x.inverse()
    return 1 / x


def mat_mul(a, b):
    """Matrix product of two lists-of-lists (rows may be any sequences)."""
    cols = list(zip(*b))
    return [[sum_prod(row, col) for col in cols] for row in a]


def sum_prod(xs, ys):
    """Sum of x * y over the pairs, skipping terms with a zero factor."""
    out = None
    for x, y in zip(xs, ys):
        if _is_zero(x) or _is_zero(y):
            continue
        out = x * y if out is None else out + x * y
    return xs[0] * ys[0] if out is None else out  # a zero of the entries' type


def mat_inverse(matrix):
    """Inverse of a square matrix by Gauss-Jordan elimination."""
    n = len(matrix)
    one = _one_like(matrix)
    zero = one - one
    cols = []
    for j in range(n):
        e = [one if i == j else zero for i in range(n)]
        cols.append(solve_linear(matrix, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _one_like(matrix):
    sample = matrix[0][0]
    if isinstance(sample, RatFunc):
        return RatFunc(1)
    if isinstance(sample, QPoly):
        return QPoly([1])
    return type(sample)(1)
