"""Differential tests: the modular rank certificate against exact elimination."""

from hypothesis import given, settings, strategies as st

from qfodc import linalg
from qfodc.scalar import ONE, Scalar

from strategies import scalars


@st.composite
def row_sets(draw):
    """Sparse rows over at most 5 columns, plus planted combinations of them."""
    row = st.dictionaries(st.integers(0, 4), scalars(), max_size=4)
    base = draw(st.lists(row, max_size=5))
    planted = []
    for _ in range(draw(st.integers(0, 3))):
        acc = {}
        for r in base:
            if draw(st.booleans()):
                acc = linalg.row_sub_scaled(acc, -draw(scalars()), r)
        planted.append(acc)
    return draw(st.permutations(base + planted))


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
