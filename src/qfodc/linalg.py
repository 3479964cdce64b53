"""Exact sparse linear algebra over Q(p) and its cyclotomic extensions.

Rows and matrices are sparse dicts whose values are field elements (Scalar
or CycElem); the code only relies on +, -, *, .inverse(), .is_zero() and
.complexity(), so the same elimination routines serve both ground fields.
Elimination is forward: `extend` and `extend_tracked` are its one step, and
no basis row is rewritten.  mat_inverse and coordalg.projected_corep
back-substitute after their forward pass.
Matrices are row-major dicts {row_label: {col_label: value}} with arbitrary
hashable, mutually comparable labels.
"""

from __future__ import annotations

from .scalar import ONE, ZERO


def _pivot(row):
    """Pivot column of a nonzero row: its lightest entry by .complexity(),
    ties by column."""
    return min(row, key=lambda c: (row[c].complexity(), c))


def add_scaled(acc, coeff, row):
    """acc += coeff * row in place, dropping exact zeros."""
    for c, v in row.items():
        s = acc.get(c)
        t = coeff * v
        if s is None:
            if not t.is_zero():
                acc[c] = t
        else:
            s = s + t
            if s.is_zero():
                del acc[c]
            else:
                acc[c] = s


def reduce_row(row, basis):
    """Reduce a sparse row against an echelon basis [(pivot_col, row), ...],
    on one copy of the row with its exact zeros dropped."""
    out = {c: v for c, v in row.items() if not v.is_zero()}
    for pc, brow in basis:
        v = out.get(pc)
        if v is not None:
            add_scaled(out, -v, brow)
    return out


def extend(basis, row):
    """Append the remainder of row against an echelon basis, its lightest
    entry normalized to 1 as pivot, when it is nonzero; True iff appended.
    No earlier basis row is rewritten."""
    r = reduce_row(row, basis)
    if not r:
        return False
    pc = _pivot(r)
    inv = r[pc].inverse()
    basis.append((pc, {c: inv * v for c, v in r.items()}))
    return True


def _reduce_tracked(row, coeffs, basis):
    """Take off row, in place, the multiple of each basis row
    (pivot_col, row, coeffs) that clears its pivot, and the same multiple
    of that row's coeffs off coeffs.  row holds no exact zeros."""
    for pc, brow, bco in basis:
        v = row.get(pc)
        if v is not None:
            add_scaled(row, -v, brow)
            add_scaled(coeffs, -v, bco)


def extend_tracked(basis, row, coeffs):
    """extend, tracking a coefficient vector alongside the row: basis is
    [(pivot_col, row, coeffs), ...], and each multiple of a basis row taken
    off the row is taken off coeffs with that row's coeffs.  A nonzero
    remainder is appended with its coeffs, both scaled to make the pivot 1,
    and None is returned; a zero remainder returns its coeffs, a
    combination whose row vanishes."""
    row, coeffs = {c: v for c, v in row.items() if not v.is_zero()}, dict(coeffs)
    _reduce_tracked(row, coeffs, basis)
    if not row:
        return coeffs
    pc = _pivot(row)
    inv = row[pc].inverse()
    basis.append((pc, {c: inv * v for c, v in row.items()},
                  {c: inv * v for c, v in coeffs.items()}))
    return None


def echelon(rows):
    """Forward echelon basis [(pivot_col, row), ...] of the row span, in
    insertion order; rows are not mutated.  Each pivot is 1 and each row is
    zero at the pivots before it, all that reduce_row needs; a caller that
    reads coordinates at the pivots back-substitutes."""
    basis = []
    for row in rows:
        extend(basis, row)
    return basis


def rank(rows):
    """Exact rank over Q(p) (or its cyclotomic extension)."""
    return len(echelon(rows))


def in_row_space(basis, row):
    """Membership of a row in the span of an echelon basis."""
    return not reduce_row(row, basis)


# ---------------------------------------------------------------------------
# sparse square matrices: {row: {col: value}}
# ---------------------------------------------------------------------------

def mat_identity(labels):
    return {l: {l: ONE} for l in labels}


def mat_mul(a, b):
    out = {}
    for r, arow in a.items():
        acc = {}
        for k, av in arow.items():
            brow = b.get(k)
            if brow:
                add_scaled(acc, av, brow)
        if acc:
            out[r] = acc
    return out


def mat_add(a, b):
    out = {r: dict(row) for r, row in a.items()}
    for r, brow in b.items():
        row = out.setdefault(r, {})
        add_scaled(row, ONE, brow)
        if not row:
            del out[r]
    return out


def mat_scale(a, k):
    if k.is_zero():
        return {}
    return {r: {c: k * v for c, v in row.items()} for r, row in a.items()}


def mat_sub(a, b):
    return mat_add(a, mat_scale(b, -ONE))


def mat_eq(a, b):
    return mat_sub(a, b) == {}


def mat_is_identity(a, labels):
    return mat_eq(a, mat_identity(list(labels)))


def vec_mat(x, a):
    """Sparse row vector times matrix."""
    out = {}
    for r, xv in x.items():
        arow = a.get(r)
        if arow:
            add_scaled(out, xv, arow)
    return out


def dot(x, y):
    """The sum of x[k] * y[k] over the keys k of y, for sparse vectors."""
    return sum((v * x[k] for k, v in y.items() if k in x), ZERO)


def mat_transpose(a):
    out = {}
    for r, row in a.items():
        for c, v in row.items():
            out.setdefault(c, {})[r] = v
    return out


def mat_inverse(a, labels):
    """Exact inverse of a square matrix on labels; raises ArithmeticError if
    singular.  The rows of a are eliminated forward (extend_tracked), row r
    tracking the combination {r: 1}.  Then each basis row, from the last to
    the first, is reduced with its combination against the rows after it:
    it is left the unit vector at its pivot, so its combination is the
    inverse's row at that pivot."""
    basis = []
    for r in labels:
        if extend_tracked(basis, a.get(r, {}), {r: ONE}) is not None:
            raise ArithmeticError("singular matrix")
    for i in reversed(range(len(basis))):
        _, row, coeffs = basis[i]
        _reduce_tracked(row, coeffs, basis[i + 1:])
    inv = {pc: coeffs for pc, _, coeffs in basis}
    return {c: inv[c] for c in labels}


def minimal_polynomial(a, labels):
    """Monic minimal polynomial of a sparse square matrix, as an ascending
    list of Scalar coefficients [c0, c1, ..., 1]: the first power a^k that
    depends on the powers before it, with its tracked coefficients."""
    basis = []
    power = mat_identity(labels)
    for k in range(len(labels) + 2):
        flat = {(r, c): v for r, row in power.items() for c, v in row.items()}
        dep = extend_tracked(basis, flat, {k: ONE})
        if dep is not None:
            lead = dep[k].inverse()
            return [lead * dep[i] if i in dep else ZERO for i in range(k + 1)]
        power = mat_mul(power, a)
    raise ArithmeticError("minimal polynomial search exceeded bound")
