"""Differential tests: the modular rank certificate and forward elimination
against exact reduced elimination."""

from hypothesis import given, settings, strategies as st

from qfodc import linalg
from qfodc.scalar import ONE, Scalar

from strategies import cyc_elems, scalars


@st.composite
def planted_rows(draw, elems, max_rows=5):
    """Sparse rows over at most 5 columns, and planted combinations of them."""
    row = st.dictionaries(st.integers(0, 4), elems, max_size=4)
    base = draw(st.lists(row, max_size=max_rows))
    planted = []
    for _ in range(draw(st.integers(0, 3))):
        acc = {}
        for r in base:
            if draw(st.booleans()):
                acc = linalg.row_sub_scaled(acc, -draw(elems), r)
        planted.append(acc)
    return base, planted


@st.composite
def row_sets(draw):
    """The base and planted Scalar rows of planted_rows, in random order."""
    base, planted = draw(planted_rows(scalars()))
    return draw(st.permutations(base + planted))


def reduced_echelon(rows):
    """Reference: reduced row echelon form, each new pivot eliminated from
    every earlier basis row as well."""
    basis = []
    for row in rows:
        r = linalg.reduce_row(row, basis)
        if not r:
            continue
        pc = min(r, key=lambda c: (linalg._weight(r[c]), c))
        inv = r[pc].inverse()
        r = {c: inv * v for c, v in r.items()}
        for i, (opc, orow) in enumerate(basis):
            v = orow.get(pc)
            if v is not None and not v.is_zero():
                basis[i] = (opc, linalg.row_sub_scaled(orow, v, r))
        basis.append((pc, r))
    return basis


@settings(deadline=None)
@given(row_sets())
def test_modular_rank_bounds_and_rank_is_exact(rows):
    exact = len(linalg.echelon(rows))
    modular = linalg._modular_rank(rows)
    assert modular is None or modular <= exact
    assert linalg.rank(rows) == exact
    # a proven upper bound that the modular rank meets skips elimination
    assert linalg.rank(rows, bound=exact) == exact


def test_unlucky_point_only_costs_time():
    p = Scalar.p_power(1)
    at_point = p - Scalar.from_int(linalg._POINT)
    # a denominator vanishing at the point: no specialisation
    rows = [{0: at_point.inverse()}, {1: ONE}]
    assert linalg._modular_rank(rows) is None
    assert linalg.rank(rows) == 2
    # a numerator vanishing at the point: the lower bound drops below bound
    rows = [{0: at_point}, {1: ONE}]
    assert linalg._modular_rank(rows) == 1
    assert linalg.rank(rows) == 2


def check_forward_echelon(data, elems, max_rows=5):
    """echelon and extend against reduced_echelon on drawn rows: the same
    pivots in the same order, pivots 1, each row zero at the pivots before
    it, and the same membership answers."""
    base, planted = data.draw(planted_rows(elems, max_rows))
    rows = data.draw(st.permutations(base + planted))
    basis = linalg.echelon(rows)
    reference = reduced_echelon(rows)
    # same pivots, so the same rank, in the same order as the reference
    assert [pc for pc, _ in basis] == [pc for pc, _ in reference]
    for i, (pc, row) in enumerate(basis):
        assert row[pc] == ONE
        assert all(prev not in row for prev, _ in basis[:i])
    grown = []
    assert sum(linalg.extend(grown, r) for r in rows) == len(grown) == len(basis)
    nonzero = data.draw(elems.filter(lambda x: not x.is_zero()))
    outside = {**(planted[0] if planted else {}), 5: nonzero}
    members = [linalg.echelon(base), reduced_echelon(base)]
    for r in base + planted + [outside]:
        got, want = (linalg.in_row_space(b, r) for b in members)
        assert got == want == (r is not outside)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_forward_echelon_over_scalars(data):
    check_forward_echelon(data, scalars())


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_forward_echelon_over_cyclotomic(data):
    check_forward_echelon(data, cyc_elems(3))
