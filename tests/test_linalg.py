"""Differential tests: the cut rank certificate and the rank carried
across word lengths against exact elimination, forward elimination
against exact reduced elimination, and the inverse by forward elimination
and back-substitution against Gauss-Jordan."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from qfodc import dual, linalg
from qfodc.cyclotomic import Zeta
from qfodc.dual import RankUnstableError, Workspace
from qfodc.scalar import FieldConfig, ONE

from oracles import gauss_jordan_inverse, row_sub_scaled
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
                acc = row_sub_scaled(acc, -draw(elems), r)
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
        pc = linalg._pivot(r)
        inv = r[pc].inverse()
        r = {c: inv * v for c, v in r.items()}
        for i, (opc, orow) in enumerate(basis):
            v = orow.get(pc)
            if v is not None and not v.is_zero():
                basis[i] = (opc, row_sub_scaled(orow, v, r))
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
    # tracking coefficients changes no pivot, and each dependent row's
    # coefficients combine the rows to zero
    tracked, deps = [], []
    for i, r in enumerate(rows):
        dep = linalg.extend_tracked(tracked, r, {i: ONE})
        if dep is not None:
            deps.append(dep)
    assert [pc for pc, _, _ in tracked] == [pc for pc, _ in basis]
    assert len(deps) == len(rows) - len(basis)
    for dep in deps:
        acc = {}
        for i, c in dep.items():
            linalg.add_scaled(acc, c, rows[i])
        assert acc == {}
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


# -- the rank carried across word lengths -------------------------------------

TOP = 5  # the longest word of a drawn family


@functools.cache
def workspace(d_max):
    return Workspace(FieldConfig.sl(2), d_max=d_max)


def cut(rows, d):
    return [{w: v for w, v in r.items() if len(w) <= d} for r in rows]


@st.composite
def word_families(draw, elems):
    """A fixed list of rows on words of length <= TOP, shuffled: rows on
    words of every length, rows empty below a drawn length, combinations
    of them that a term on a longer word breaks, and sometimes a staircase
    (row k only on one word of length k), whose rank grows at every
    degree."""
    some = st.dictionaries(words(range(TOP + 1)), elems, max_size=4)
    rows = draw(st.lists(some, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        low = draw(st.integers(1, TOP))
        rows.append(draw(st.dictionaries(words(range(low, TOP + 1)), elems,
                                         min_size=1, max_size=3)))
    for _ in range(draw(st.integers(0, 3))):
        acc = {}
        for r in rows:
            if draw(st.booleans()):
                linalg.add_scaled(acc, draw(elems), r)
        if draw(st.booleans()):
            linalg.add_scaled(acc, ONE, {draw(words(range(2, TOP + 1))): draw(elems)})
        rows.append(acc)
    if draw(st.booleans()):
        rows += [{draw(words([k])): draw(elems)} for k in range(1, TOP + 1)]
    return draw(st.permutations(rows))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([scalars(), cyc_elems(3)]).flatmap(word_families),
       st.integers(dual.START_DEGREE + dual.STABILITY_WINDOW - 1, TOP))
def test_stabilized_rank_is_the_exact_rank_at_each_degree(rows, d_max):
    ranks = []
    for d in range(dual.START_DEGREE, d_max + 1):
        ranks.append(linalg.rank(cut(rows, d)))
        window = ranks[-dual.STABILITY_WINDOW:]
        if len(window) == dual.STABILITY_WINDOW and len(set(window)) == 1:
            assert workspace(d_max).stabilized_rank(lambda d: cut(rows, d)) == (ranks[-1], d)
            return
    with pytest.raises(RankUnstableError) as exc:
        workspace(d_max).stabilized_rank(lambda d: cut(rows, d))
    assert str(exc.value).endswith(str(ranks))


@st.composite
def square_matrices(draw, elems):
    """A sparse n x n matrix on the labels 0..n-1, n <= 4, its labels and
    whether it is planted singular: in half the draws one row is replaced by
    a combination of the others."""
    labels = list(range(draw(st.integers(1, 4))))
    rows = [draw(st.dictionaries(st.sampled_from(labels), elems, max_size=len(labels)))
            for _ in labels]
    planted = draw(st.booleans())
    if planted:
        k = draw(st.sampled_from(labels))
        acc = {}
        for r, row in enumerate(rows):
            if r != k and draw(st.booleans()):
                acc = row_sub_scaled(acc, -draw(elems), row)
        rows[k] = acc
    return {r: row for r, row in enumerate(rows) if row}, labels, planted


def check_inverse(a, labels):
    """mat_inverse and the Gauss-Jordan reference give the same inverse,
    and it inverts a, or both raise ArithmeticError."""
    results = []
    for inverse in (linalg.mat_inverse, gauss_jordan_inverse):
        try:
            results.append(inverse(a, labels))
        except ArithmeticError:
            results.append(None)
    got, want = results
    assert got == want
    if got is not None:
        assert linalg.mat_is_identity(linalg.mat_mul(got, a), labels)
    return got


@settings(deadline=None, max_examples=100)
@given(square_matrices(scalars()))
def test_inverse_matches_gauss_jordan(case):
    a, labels, planted = case
    inv = check_inverse(a, labels)
    if planted:
        assert inv is None


@pytest.mark.parametrize("config, zeta", [
    (FieldConfig.sl(2), None),
    (FieldConfig.sl(3), None),
    (FieldConfig.sl(4), None),
    (FieldConfig.sp(2), None),
    (FieldConfig.sl(3), Zeta(3, 1)),
])
def test_inverse_of_antipode_blocks(config, zeta, monkeypatch):
    # the generator block matrices that antipode_rep inverts: L+ and L- or,
    # with a zeta, the twist character eps_zeta over Q(p)[x]/Phi_3
    ws = Workspace(config)
    reps = [ws.lplus, ws.lminus] if zeta is None else [dual.eps_zeta_rep(config, zeta)]
    blocks = []
    inverse = linalg.mat_inverse

    def recorded(a, labels):
        blocks.append((a, labels))
        return inverse(a, labels)

    monkeypatch.setattr(linalg, "mat_inverse", recorded)
    for rep in reps:
        dual.antipode_rep(rep, config)
    monkeypatch.undo()
    assert len(blocks) == len(reps)
    for a, labels in blocks:
        assert check_inverse(a, labels) is not None
