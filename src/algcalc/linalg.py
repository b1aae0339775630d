"""Small dense linear algebra over generic smooth scalars.

The routines work on nested lists whose entries are floats or Taylor
objects, so a matrix inverse computed here carries derivative information
when the inputs do.  Pivot-magnitude comparisons use the scalar (constant)
part of each entry.
"""

from __future__ import annotations

import math

from .jets import derived, scalar_value

PIVOT_TOL = 1e-12
RANK_TOL = 1e-10


class SingularMatrixError(ArithmeticError):
    """All candidate pivots fell below the relative tolerance, or an entry
    is not finite."""


def _scale(rows):
    scale = 0.0
    for row in rows:
        for entry in row:
            scale = max(scale, abs(scalar_value(entry)))
    return scale if scale > 0.0 else 1.0


def invert(rows, tol=PIVOT_TOL):
    """Inverse by Gauss-Jordan elimination with partial pivoting.

    Raises SingularMatrixError when an entry is not finite, or when the best
    pivot is below ``tol`` relative to the largest input entry.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if not math.isfinite(scalar_value(entry)):
                raise SingularMatrixError(
                    f"entry [{i}][{j}] is {scalar_value(entry)!r}, not finite")
    scale = _scale(rows)
    work = [list(row) for row in rows]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n),
                        key=lambda i: abs(scalar_value(work[i][col])))
        if abs(scalar_value(work[pivot_row][col])) <= tol * scale:
            raise SingularMatrixError(f"pivot below {tol} in column {col}")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = work[col][col]
        for j in range(n):
            work[col][j] = work[col][j] / pivot
            inv[col][j] = inv[col][j] / pivot
        for i in range(n):
            if i == col:
                continue
            factor = work[i][col]
            if isinstance(factor, float) and factor == 0.0:
                continue
            for j in range(n):
                work[i][j] = work[i][j] - factor * work[col][j]
                inv[i][j] = inv[i][j] - factor * inv[col][j]
    return inv


def matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def residual_identity(a, b):
    """max |a @ b - I|, used to sanity-check computed inverses.  A NaN
    entry of the product wins, wherever it comes, as in a sweep."""
    gaps = [abs(scalar_value(v) - (1.0 if i == j else 0.0))
            for i, row in enumerate(matmul(a, b)) for j, v in enumerate(row)]
    return max(gaps, key=lambda gap: (math.isnan(gap), gap))


def rank(rows, tol=RANK_TOL):
    """Numerical rank by full-pivot elimination on a float matrix."""
    work = [[float(scalar_value(v)) for v in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    scale = _scale(work)
    cols = list(range(ncols))
    r = 0
    for _ in range(min(nrows, ncols)):
        best, bi, bj = 0.0, -1, -1
        for i in range(r, nrows):
            for j in range(r, ncols):
                if abs(work[i][j]) > best:
                    best, bi, bj = abs(work[i][j]), i, j
        if best <= tol * scale:
            break
        work[r], work[bi] = work[bi], work[r]
        for row in work:
            row[r], row[bj] = row[bj], row[r]
        cols[r], cols[bj] = cols[bj], cols[r]
        pivot = work[r][r]
        for i in range(r + 1, nrows):
            factor = work[i][r] / pivot
            for j in range(r, ncols):
                work[i][j] -= factor * work[r][j]
        r += 1
    return r


def sym_pivots(rows, tol=RANK_TOL):
    """Pivots of a symmetric float matrix under diagonal pivoting.

    Returns the list of pivots encountered; stops early (padding with zeros)
    when no remaining diagonal entry exceeds ``tol`` relative to the input
    scale.  Signs of the pivots give the signature by Sylvester's law for
    the nondegenerate part.
    """
    work = [[float(scalar_value(v)) for v in row] for row in rows]
    n = len(work)
    scale = _scale(work)
    active = list(range(n))
    pivots = []
    while active:
        k = max(active, key=lambda i: abs(work[i][i]))
        pivot = work[k][k]
        if abs(pivot) <= tol * scale:
            pivots.extend(0.0 for _ in active)
            break
        pivots.append(pivot)
        active.remove(k)
        for i in active:
            factor = work[i][k] / pivot
            for j in active:
                work[i][j] -= factor * work[k][j]
            work[i][k] = work[k][i] = 0.0
    return pivots


def matrix_field(fn, mats, exc=None):
    """One node whose value is ``fn`` of the square field matrices
    ``mats`` at a point, each passed as a list of rows.  ``fn`` should reach
    this module's routines through the module, so a wrapped one runs.  A
    SingularMatrixError from ``fn`` becomes ``exc`` (SingularMatrixError if
    None), its message naming the point."""
    entries = [f for mat in mats for row in mat for f in row]
    sizes = tuple(len(mat) for mat in mats)
    return derived(_matrices_at, entries, (fn, sizes, entries[0].m, exc))


def _matrices_at(spec, coords, *entries):
    fn, sizes, m, exc = spec
    values = iter(entries)
    try:
        return fn(*([[next(values) for _ in range(n)] for _ in range(n)]
                    for n in sizes))
    except SingularMatrixError as err:
        point = [scalar_value(c) for c in coords]
        raise (exc or SingularMatrixError)(
            f"{err} at x={point[:m]}, y={point[m:]}") from err


def field_matrix_inverse(mat, exc=None):
    """Entry fields of the pointwise inverse of a matrix of scalar fields.

    Every entry reads one inverse node, so an ``evaluate`` call inverts the
    matrix once at its point; with Taylor coordinates the inverse carries
    derivative information.  The inverse node and its entries are interned,
    so inverting one matrix twice gives the same nodes.  ``exc``, if given,
    replaces SingularMatrixError at evaluation time; either way the message
    names the point.
    """
    n = len(mat)
    if n == 0:
        return []
    inverse = matrix_field(_inverse_entries, [mat], exc)
    return [[derived(_entry, (inverse,), i * n + j) for j in range(n)]
            for i in range(n)]


def _inverse_entries(rows):
    return [v for row in invert(rows) for v in row]


def _entry(index, coords, values):
    return values[index]


def residual_identity_field(a, b):
    """The field ``residual_identity`` of two square matrices of fields."""
    return matrix_field(_residual_identity, [a, b])


def _residual_identity(a, b):
    return residual_identity(a, b)


def signature(rows, tol=RANK_TOL):
    """(positive, negative, null) pivot counts of a symmetric matrix."""
    pivots = sym_pivots(rows, tol)
    pos = sum(1 for p in pivots if p > 0.0)
    neg = sum(1 for p in pivots if p < 0.0)
    return pos, neg, len(pivots) - pos - neg
