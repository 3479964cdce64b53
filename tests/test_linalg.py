"""Differential tests: the cut rank certificate against exact elimination,
and forward elimination against exact reduced elimination."""

from hypothesis import given, settings, strategies as st

from qfodc import dual, linalg
from qfodc.scalar import ONE

from strategies import cyc_elems, scalars


@st.composite
def planted_rows(draw, elems, max_rows=5, keys=st.integers(0, 4)):
    """Sparse rows over the drawn keys (by default at most 5 columns), and
    planted combinations of them."""
    row = st.dictionaries(keys, elems, max_size=4)
    base = draw(st.lists(row, max_size=max_rows))
    planted = []
    for _ in range(draw(st.integers(0, 3))):
        acc = {}
        for r in base:
            if draw(st.booleans()):
                acc = linalg.row_sub_scaled(acc, -draw(elems), r)
        planted.append(acc)
    return base, planted


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


GENS = [(1, 1), (1, 2), (2, 1)]


def words(lengths):
    """Words over GENS whose length is drawn from lengths."""
    return st.sampled_from(lengths).flatmap(lambda k: st.tuples(*[st.sampled_from(GENS)] * k))


@st.composite
def word_rows(draw, elems):
    """Rows keyed by words of length <= 3, with planted combinations, empty rows
    and rows supported only on the longest words, in random order."""
    base, planted = draw(planted_rows(elems, keys=words(range(4))))
    longest = st.dictionaries(words([3]), elems, min_size=1, max_size=3)
    empty = [{}] * draw(st.integers(0, 2))
    return draw(st.permutations(base + planted + draw(st.lists(longest, max_size=2)) + empty))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([scalars(), cyc_elems(3)]).flatmap(word_rows))
def test_word_rank_is_the_exact_rank(rows):
    assert dual.word_rank(rows) == linalg.rank(rows)


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
