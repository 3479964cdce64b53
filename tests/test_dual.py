import functools
import itertools
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from qfodc import coordalg, dual, fodc, linalg, rmat
from qfodc.cli import parse_zeta
from qfodc.coordalg import CoordElem, YoungWeight, coproduct, coproduct_splits
from qfodc.cyclotomic import TRIVIAL, Zeta, all_admissible
from qfodc.dual import (
    AntipodeFailureError,
    Functional,
    RankUnstableError,
    Workspace,
    all_words,
    antipode_rep,
    conv,
    eps_zeta_rep,
)
from qfodc.scalar import FieldConfig, ONE, Scalar, ZERO
from oracles import (
    UnsupportedFunctionalError,
    ad_r,
    antipode,
    antipode_axiom_holds_both_sides,
    comatrix_holds,
    evaluate,
    k_alpha_functional,
    k_functional,
    letter_legs,
    nested_label,
    pair_words,
    power,
    principal_minor,
    r_form,
    rbar_form,
)
from strategies import cyc_elems, scalars

g = CoordElem.generator


@pytest.fixture(scope="module")
def ws2():
    return Workspace(FieldConfig.sl(2))


@pytest.fixture(scope="module")
def ws3():
    return Workspace(FieldConfig.sl(3))


def rand_word(rng, N, max_deg=3, min_deg=0):
    d = rng.randint(min_deg, max_deg)
    return tuple((rng.randint(1, N), rng.randint(1, N)) for _ in range(d))


# -- L-functional generator values -------------------------------------------

def test_lplus_values(ws2):
    q = ws2.config.q
    z = ws2.rdata.z
    assert evaluate(ws2.lplus_entry(1, 1), g(1, 1)) == z * q
    # sparsity: zero wherever the R support forbids it
    assert evaluate(ws2.lplus_entry(1, 2), g(1, 2)).is_zero()
    assert evaluate(ws2.lplus_entry(2, 1), g(1, 1)).is_zero()


def test_lrep_multiplicative(ws2):
    rng = random.Random(11)
    for rep in (ws2.lplus, ws2.lminus):
        for _ in range(15):
            w1 = rand_word(rng, 2, 2)
            w2 = rand_word(rng, 2, 2)
            prod = linalg.mat_mul(rep.word_matrix(w1), rep.word_matrix(w2))
            assert linalg.mat_eq(prod, rep.word_matrix(w1 + w2))


def test_antipode_rep_inverse_law(ws2, ws3):
    # sum_k S(l-^i_k)(u^a_m) l-^k_j(u^m_b) = delta_ij delta_ab
    for ws in (ws2, ws3):
        N = ws.N
        srep = antipode_rep(ws.lminus, ws.config)
        pair = conv(srep, ws.lminus)
        # the contraction sum_k S(l-^i_k) l-^k_j is sum_k srep^k_i * l-^k_j,
        # i.e. the row (k, k), column (i, j) entries of the pair rep
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                terms = [(pair, (k, k), (i, j), ONE) for k in range(1, N + 1)]
                f = Functional(terms)
                for a in range(1, N + 1):
                    for b in range(1, N + 1):
                        got = evaluate(f, g(a, b))
                        want = ONE if (i == j and a == b) else ZERO
                        assert got == want


def test_antipode_rep_on_words(ws2):
    # the convolution-inverse law extends to words of degree <= 3
    N = 2
    srep = antipode_rep(ws2.lminus, ws2.config)
    pair = conv(srep, ws2.lminus)
    rng = random.Random(5)
    for _ in range(10):
        w = rand_word(rng, N, 3)
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                f = Functional([(pair, (k, k), (i, j), ONE) for k in range(1, N + 1)])
                want = ONE if (i == j and all(a == b for a, b in w)) else ZERO
                assert evaluate(f, CoordElem.from_word(w)) == want


def test_antipode_rep_eps_zeta(ws3):
    z3 = Zeta(3, 1)
    rep = eps_zeta_rep(ws3.config, z3)
    srep = antipode_rep(rep, ws3.config)
    inv_val = srep.gens[(1, 1)][0][0]
    assert inv_val == Zeta(3, 2).value  # zeta^{-1} = conjugate root


def test_double_antipode_is_diagonal_conjugation(ws2):
    srep = antipode_rep(ws2.lminus, ws2.config)
    s2 = antipode_rep(srep, ws2.config)
    # S^2(l-) = D l- D^{-1} for a diagonal D: check entrywise ratios
    q = ws2.config.q
    d = {1: ONE, 2: q ** -2}
    for (i, j), m in ws2.lminus.gens.items():
        for a, row in m.items():
            for b, v in row.items():
                got = s2.gens.get((i, j), {}).get(a, {}).get(b, ZERO)
                assert got == d[a] * v * d[b].inverse()


def test_eps_zeta_counit_and_admissibility(ws2, ws3):
    assert [str(z) for z in all_admissible(ws2.config)] == ["1", "-1"]
    assert len(all_admissible(ws3.config)) == 3
    rep = eps_zeta_rep(ws2.config, Zeta(1, 0))
    f = Functional([(rep, 0, 0, ONE)])
    rng = random.Random(2)
    for _ in range(10):
        w = rand_word(rng, 2, 3)
        assert evaluate(f, CoordElem.from_word(w)) == CoordElem.from_word(w).counit()


def test_conv_counit_law(ws2):
    lifted = conv(eps_zeta_rep(ws2.config, Zeta(1, 0)), ws2.lplus)
    rng = random.Random(7)
    for _ in range(10):
        w = rand_word(rng, 2, 3)
        for i in range(1, 3):
            for j in range(1, 3):
                a = evaluate(Functional([(lifted, (0, i), (0, j), ONE)]), CoordElem.from_word(w))
                b = evaluate(ws2.lplus_entry(i, j), CoordElem.from_word(w))
                assert a == b


def test_conv_matches_split_sum(ws2):
    # evaluating conv entries on a degree-2 word equals the explicit sum
    # over comatrix splits
    rep = conv(ws2.lplus, ws2.lminus)
    rng = random.Random(13)
    for _ in range(10):
        w = rand_word(rng, 2, 2, min_deg=2)
        for i in range(1, 3):
            for j in range(1, 3):
                for k in range(1, 3):
                    for l in range(1, 3):
                        f = Functional([(rep, (i, k), (j, l), ONE)])
                        got = evaluate(f, CoordElem.from_word(w))
                        want = ZERO
                        for w1, w2 in coproduct_splits(w, 2):
                            want = want + ws2.lplus.entry_on_word(i, j, w1) * \
                                ws2.lminus.entry_on_word(k, l, w2)
                        assert got == want


def test_eps_zeta_conv_is_grading(ws3):
    # (eps_zeta * f)(w) = zeta^{deg w} f(w): the generic convolution agrees
    # with the grading shortcut used by the fast row assembly
    z = Zeta(3, 1)
    rep = conv(eps_zeta_rep(ws3.config, z), ws3.lplus)
    rng = random.Random(17)
    ring_lift = z.value
    for _ in range(8):
        w = rand_word(rng, 3, 3)
        for i in (1, 2):
            got = evaluate(Functional([(rep, (0, i), (0, i), ONE)]), CoordElem.from_word(w))
            base = ws3.lplus.entry_on_word(i, i, w)
            want = z.power_value(len(w)) * base
            diff = got - want
            assert diff.is_zero()


# -- convolution powers -------------------------------------------------------

def _chain_power(f, k):
    """The k-fold convolution power summed chain by chain: generator (i, j)
    is the sum over middle indices m1..m(k-1) of the tensor product of
    f(u^i_m1), f(u^m1_m2), ..., f(u^m(k-1)_j), with flat k-tuple labels."""
    N = f.N
    gens = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            acc = {}
            for middle in itertools.product(range(1, N + 1), repeat=k - 1):
                idx = (i,) + middle + (j,)
                chain = [f.gens.get((idx[t], idx[t + 1])) for t in range(k)]
                if not all(chain):
                    continue
                partial = [((), ONE, ())]
                for m in chain:
                    partial = [
                        (rp + (a,), val * v, cp + (b,))
                        for rp, val, cp in partial
                        for a, mrow in m.items()
                        for b, v in mrow.items()
                    ]
                for rp, val, cp in partial:
                    row = acc.setdefault(rp, {})
                    row[cp] = row[cp] + val if cp in row else val
            acc = {
                r: {c: v for c, v in row.items() if not v.is_zero()}
                for r, row in acc.items()
            }
            acc = {r: row for r, row in acc.items() if row}
            if acc:
                gens[(i, j)] = acc
    return gens


@pytest.mark.parametrize(
    "config", [FieldConfig.sl(3), FieldConfig.sl(4), FieldConfig.sp(2)], ids=str
)
def test_conv_power_matches_chain_sum(config):
    rdata = rmat.build_r(config)
    for f in (dual.lplus(config, rdata), dual.lminus(config, rdata)):
        for k in range(1, 5):
            want = {
                key: {
                    nested_label(r): {nested_label(c): v for c, v in row.items()}
                    for r, row in m.items()
                }
                for key, m in _chain_power(f, k).items()
            }
            assert dual.conv_power(f, k).gens == want, (f.name, k)


def test_conv_power_rejects_k_below_one(ws2):
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            dual.conv_power(ws2.lplus, k)


def test_pair_words_on_the_empty_fixed_word_is_the_counit(ws2):
    rng = random.Random(5)
    for base in (ws2.lplus, ws2.lminus):
        assert pair_words(ws2, base, (), ()) == ONE
        for _ in range(10):
            w = rand_word(rng, 2, 3)
            assert pair_words(ws2, base, w, ()) == CoordElem.from_word(w).counit()


# -- r-form -----------------------------------------------------------------

def test_r_form_unit_laws(ws2):
    rng = random.Random(3)
    for _ in range(10):
        b = CoordElem.from_word(rand_word(rng, 2, 2))
        assert r_form(ws2, CoordElem.unit(), b) == b.counit()
        assert r_form(ws2, b, CoordElem.unit()) == b.counit()


def test_r_form_generator_values(ws2):
    q = ws2.config.q
    z = ws2.rdata.z
    lam = q - q.inverse()
    for i in range(1, 3):
        for j in range(1, 3):
            for n in range(1, 3):
                for m in range(1, 3):
                    got = r_form(ws2, g(i, j), g(n, m))
                    assert got == z * ws2.rdata.entries.get((i, n, j, m), ZERO)
    assert r_form(ws2, g(2, 1), g(1, 2)) == z * lam


def test_r_form_bicharacter_axioms(ws2):
    # r(ab (x) c) = r(a (x) c1) r(b (x) c2) and
    # r(a (x) bc) = r(a1 (x) c) r(a2 (x) b)   [note the leg reversal]
    rng = random.Random(29)
    N = 2
    for _ in range(12):
        a = rand_word(rng, N, 2)
        b = rand_word(rng, N, 2)
        c = rand_word(rng, N, 2)
        lhs = pair_words(ws2, ws2.lplus, a + b, c)
        rhs = ZERO
        for c1, c2 in coproduct_splits(c, N):
            rhs = rhs + pair_words(ws2, ws2.lplus, a, c1) * pair_words(ws2, ws2.lplus, b, c2)
        assert lhs == rhs
        lhs2 = pair_words(ws2, ws2.lplus, a, b + c)
        rhs2 = ZERO
        for a1, a2 in coproduct_splits(a, N):
            rhs2 = rhs2 + pair_words(ws2, ws2.lplus, a1, c) * pair_words(ws2, ws2.lplus, a2, b)
        assert lhs2 == rhs2


def test_rbar_is_convolution_inverse(ws2):
    rng = random.Random(31)
    N = 2
    for _ in range(15):
        wa = rand_word(rng, N, 2)
        wb = rand_word(rng, N, 2)
        a, b = CoordElem.from_word(wa), CoordElem.from_word(wb)
        total = ZERO
        for (a1, a2) in coproduct_splits(wa, N):
            for (b1, b2) in coproduct_splits(wb, N):
                total = total + pair_words(ws2, ws2.lminus, b1, a1) * \
                    pair_words(ws2, ws2.lplus, a2, b2)
        assert total == a.counit() * b.counit()
        # and the other composition order
        total = ZERO
        for (a1, a2) in coproduct_splits(wa, N):
            for (b1, b2) in coproduct_splits(wb, N):
                total = total + pair_words(ws2, ws2.lplus, a1, b1) * \
                    pair_words(ws2, ws2.lminus, b2, a2)
        assert total == a.counit() * b.counit()


def test_rbar_agrees_with_antipode_composition(ws2):
    # rbar(a (x) b) = r(S(a) (x) b)
    rng = random.Random(37)
    for _ in range(10):
        wa = rand_word(rng, 2, 2)
        wb = rand_word(rng, 2, 2)
        a = CoordElem.from_word(wa)
        b = CoordElem.from_word(wb)
        assert rbar_form(ws2, a, b) == r_form(ws2, antipode(ws2, a), b)


# -- q-form and l-functionals --------------------------------------------------

def test_l_of_unit_is_counit(ws2):
    f = ws2.l_of(CoordElem.unit())
    rng = random.Random(41)
    for _ in range(8):
        w = rand_word(rng, 2, 3)
        assert evaluate(f, CoordElem.from_word(w)) == CoordElem.from_word(w).counit()


def test_l_of_matches_q_form(ws2):
    # q(x (x) a) = l(a)(x) on every word pair of degree <= 2, entry by
    # entry: the rows verify_factorizability reads, against the q-form
    for ws in (ws2, Workspace(FieldConfig.sp(1))):
        words = all_words(ws.N, 2)
        rows = dual.word_values([ws.l_of(CoordElem.from_word(a)) for a in words], 2)
        for a, row in zip(words, rows):
            for x in words:
                want = ws.q_form(CoordElem.from_word(x), CoordElem.from_word(a))
                assert row.get(x, ZERO) == want, (x, a)


def test_l_of_generator_matches_l_entry(ws2):
    u = ws2.corep("u")
    rng = random.Random(47)
    for i in range(2):
        for j in range(2):
            f = ws2.l_of(g(i + 1, j + 1))
            h = ws2.l_entry(u, i, j)
            for _ in range(6):
                w = CoordElem.from_word(rand_word(rng, 2, 3))
                assert evaluate(f, w) == evaluate(h, w)


def test_l_entry_minor_agrees_with_word_expansion(ws3):
    # the minor corepresentation route and the graded tensor-power route
    # produce the same functional on free words
    m2 = ws3.corep("minor:2")
    via_minor = ws3.l_entry(m2, 0, 0)
    via_words = ws3.l_of(principal_minor(ws3, 2))
    rng = random.Random(53)
    for _ in range(6):
        w = CoordElem.from_word(rand_word(rng, 3, 2))
        assert evaluate(via_minor, w) == evaluate(via_words, w)


def test_sl2_l_of_determinant_word(ws2):
    # l(D_{q,2}-word) = tau(-2 omega_2-analogue) = (l+^1_1 l+^2_2)^2; for
    # SL_q(2) the frame [0,1] does not exist, but the determinant word
    # pairs like the unit: l(det) = eps
    det = principal_minor(ws2, 2)
    eq, deg = ws2.functional_equal(ws2.l_of(det), ws2.eps_functional(), degree=3)
    assert eq


def test_tau_zero_is_counit(ws2):
    f = ws2.tau_functional(YoungWeight(()))
    rng = random.Random(59)
    for _ in range(6):
        w = CoordElem.from_word(rand_word(rng, 2, 3))
        assert evaluate(f, w) == w.counit()


def test_tau_omega1_is_lplus_square(ws2):
    tau = ws2.tau_functional(YoungWeight((1,)))
    rng = random.Random(61)
    for _ in range(8):
        w = rand_word(rng, 2, 3)
        want = ZERO
        for w1, w2 in coproduct_splits(w, 2):
            want = want + ws2.lplus.entry_on_word(1, 1, w1) * \
                ws2.lplus.entry_on_word(1, 1, w2)
        assert evaluate(tau, CoordElem.from_word(w)) == want


def _tau_seq(weight):
    """The L+ diagonal indices whose product tau(-2 weight) is."""
    seq = []
    for k, mult in enumerate(weight.m, start=1):
        seq.extend(list(range(1, k + 1)) * (2 * mult))
    return seq


@pytest.mark.parametrize(
    "config", [FieldConfig.sl(2), FieldConfig.sl(3), FieldConfig.sp(2)], ids=str
)
def test_tau_character_is_the_diagonal_entry_of_the_lplus_power(config):
    ws = Workspace(config)
    fundamental = [YoungWeight.fundamental(k) for k in range(1, config.rank + 1)]
    for weight in fundamental + [YoungWeight((1, 1)), YoungWeight((2,))]:
        seq = _tau_seq(weight)
        lab = nested_label(seq)
        rep = power(ws, ws.lplus, len(seq))
        want = dual.column_values(rep, {lab: ONE}, 3, [lab])[lab]
        assert ws.tau_functional(weight).word_values(3) == want, weight


@pytest.mark.parametrize("gen, a, b", [((1, 1), 2, 1), ((1, 2), 1, 1)],
                         ids=["strictly-lower", "diagonal-entry-off-diagonal-generator"])
def test_tau_refuses_lplus_values_that_are_not_characters(gen, a, b):
    ws = Workspace(FieldConfig.sl(2))
    m = {r: dict(row) for r, row in ws.lplus.gen_matrix(*gen).items()}
    m.setdefault(a, {})[b] = ONE
    ws.lplus.gens[gen] = m
    with pytest.raises(dual.NotACharacterError):
        ws.tau_functional(YoungWeight((1,)))
    assert issubclass(dual.NotACharacterError, ArithmeticError)


def test_k_functionals(ws3):
    q = ws3.config.q
    # <K_{alpha_i}, u^r_r> = q_i^{-delta^i_r + delta^{i+1}_r} for r <= n
    for i in (1, 2):
        ka = k_alpha_functional(ws3, i)
        for r in (1, 2):
            want = q ** (-(1 if i == r else 0) + (1 if i + 1 == r else 0))
            assert evaluate(ka, g(r, r)) == want
    k1 = k_functional(ws3, 1)
    assert evaluate(k1, g(1, 1)) == evaluate(ws3.lminus_entry(1, 1), g(1, 1))


# -- adjoint action ---------------------------------------------------------

def test_ad_r_by_counit_is_identity(ws2):
    epsf = ws2.eps_functional()
    x = ws2.l_entry(ws2.corep("u"), 0, 1)
    img = ad_r(ws2, epsf, x)
    rng = random.Random(67)
    for _ in range(8):
        w = CoordElem.from_word(rand_word(rng, 2, 3))
        assert evaluate(img, w) == evaluate(x, w)


def test_ad_r_on_counit(ws2):
    # ad_R(f) eps = f(1) eps
    f = ws2.lplus_entry(1, 1)
    img = ad_r(ws2, f, ws2.eps_functional())
    f1 = f.value_at_unit()
    rng = random.Random(71)
    for _ in range(8):
        w = CoordElem.from_word(rand_word(rng, 2, 3))
        assert evaluate(img, w) == f1 * w.counit()


def test_ad_r_rejects_multi_rep(ws2):
    f = ws2.lplus_entry(1, 1) + ws2.lminus_entry(1, 1)
    with pytest.raises(UnsupportedFunctionalError):
        ad_r(ws2, f, ws2.eps_functional())


# -- evaluation matrices, ranks --------------------------------------------

def test_rank_of_counit(ws2):
    assert linalg.rank(dual.word_values([ws2.eps_functional()], 2)) == 1


def test_span_ranks():
    a = {(): ONE}
    b = {((1, 1),): ONE}
    c = {((1, 2),): ONE}
    a_plus_b = {(): ONE, ((1, 1),): ONE}
    # equal spans, written with different rows
    assert dual.span_ranks([a, b], [a_plus_b, b]) == ([2, 2], 2)
    # strict containment: the first span lies inside the second
    assert dual.span_ranks([a], [a, c]) == ([1, 2], 2)
    # independent sets: the union is the sum
    assert dual.span_ranks([a, b], [c]) == ([2, 1], 3)


def test_l_entries_rank_stabilizes_at_five(ws2):
    u = ws2.corep("u")
    fs = [ws2.l_entry(u, i, j) for i in range(2) for j in range(2)]
    fs.append(ws2.eps_functional())
    r, deg = ws2.stabilized_rank(lambda d: dual.word_values(fs, d))
    assert r == 5
    assert deg == 3


def test_trivial_corep_rank_one(ws2):
    one = ws2.corep("1")
    fs = [ws2.l_entry(one, 0, 0)]
    r, _ = ws2.stabilized_rank(lambda d: dual.word_values(fs, d))
    assert r == 1  # only eps survives


def staircase(d):
    """Rows k = 1..5, row k only on one word of length k, cut to degree d:
    rank d at degree d."""
    return [{((1, 1),) * k: ONE} if k <= d else {} for k in range(1, 6)]


def test_stabilized_rank_unstable_raises(ws2):
    # rank d at degree d never repeats within the window
    with pytest.raises(RankUnstableError):
        Workspace(FieldConfig.sl(2), d_max=3).stabilized_rank(staircase)


def test_stabilized_rank_rejects_a_changing_row_count(ws2):
    with pytest.raises(ValueError):
        ws2.stabilized_rank(lambda d: staircase(d)[:d + 1])


def test_policy_rejects_out_of_range():
    for d_max in (0, 1, 2):
        with pytest.raises(ValueError):
            Workspace(FieldConfig.sl(2), d_max=d_max)
    # the smallest d_max that leaves room for a full stability window
    last = dual.START_DEGREE + dual.STABILITY_WINDOW - 1
    assert Workspace(FieldConfig.sl(2), d_max=last).d_max == last


def test_word_traversal_stops_below_degree_zero(ws2):
    m = ws2.mrep(ws2.corep("u"))
    x0 = {(1, 1): ONE}
    assert list(dual.iter_word_states(m, x0, -1)) == [((), x0)]


# -- the word-evaluation kernel against single entries, word by word ----------

@functools.cache
def _rep_pool(n):
    """L+, L-, one conv and one mrep of SL_q(n)."""
    ws = Workspace(FieldConfig.sl(n))
    return [ws.lplus, ws.lminus, conv(ws.lplus, ws.lminus), ws.mrep(ws.corep("u"))]


# a CycElem coefficient, so that values leave Q(p)
CYC_COEFFS = cyc_elems(3).filter(lambda c: not c.is_zero())


def _entries_by_word(terms, n, degree):
    """{word: sum co * rep(word)[r, c]} over all_words, exact zeros omitted,
    from MatRep.entry_on_word one word at a time."""
    out = {}
    for w in all_words(n, degree):
        total = ZERO
        for rep, r, c, co in terms:
            total = co * rep.entry_on_word(r, c, w) + total
        if not total.is_zero():
            out[w] = total
    return out


def _same_rows(got, want):
    return got.keys() == want.keys() and all((got[k] - want[k]).is_zero() for k in want)


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_column_values_match_entries_word_by_word(data):
    n = data.draw(st.sampled_from((2, 3)))
    rep = data.draw(st.sampled_from(_rep_pool(n)))
    degree = data.draw(st.integers(0, 3))
    starts = data.draw(st.lists(st.sampled_from(rep.labels), min_size=1, max_size=2, unique=True))
    x0 = {r: data.draw(scalars()) for r in starts}
    x0[starts[0]] = data.draw(CYC_COEFFS)
    cols = data.draw(st.lists(st.sampled_from(rep.labels), max_size=3, unique=True))
    got = dual.column_values(rep, x0, degree, cols)
    want = {col: _entries_by_word([(rep, r, col, co) for r, co in x0.items()], n, degree)
            for col in cols}
    assert got.keys() == want.keys()
    assert all(_same_rows(got[col], want[col]) for col in want)


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_word_values_match_entries_word_by_word(data):
    # two or three rows of one rep carry the same (col, coeff) pattern in
    # every functional, so they form one block; a copy of the pattern on one
    # more row with a single coefficient doubled does not join it
    n = data.draw(st.sampled_from((2, 3)))
    pool = _rep_pool(n)
    degree = data.draw(st.integers(0, 3))
    rep = data.draw(st.sampled_from([r for r in pool if len(r.labels) >= 3]))
    shared = data.draw(st.lists(st.sampled_from(rep.labels), min_size=3, max_size=4, unique=True))
    rows, odd = shared[:-1], shared[-1]

    def entry():
        free = [r for r in pool if r is not rep or len(r.labels) > len(shared)]
        other = data.draw(st.sampled_from(free))
        labels = [r for r in other.labels if other is not rep or r not in shared]
        return other, data.draw(st.sampled_from(labels)), data.draw(st.sampled_from(other.labels))

    patterns = []
    for _ in range(data.draw(st.integers(1, 3))):
        cols = data.draw(st.lists(st.sampled_from(rep.labels), min_size=1, max_size=2, unique=True))
        patterns.append([(c, data.draw(scalars() | CYC_COEFFS)) for c in cols])
    changed = data.draw(st.integers(0, len(patterns) - 1))
    fs = []
    for k, pattern in enumerate(patterns):
        terms = [(*entry(), data.draw(scalars())) for _ in range(data.draw(st.integers(0, 2)))]
        terms += [(rep, r, c, co) for r in rows for c, co in pattern]
        terms += [(rep, odd, c, co + co if (k, t) == (changed, 0) else co)
                  for t, (c, co) in enumerate(pattern)]
        fs.append(Functional(terms + [(*entry(), data.draw(CYC_COEFFS))]))
    for f, got in zip(fs, dual.word_values(fs, degree)):
        assert _same_rows(got, _entries_by_word(f.terms, n, degree))
    block_rows = [set(rs) for r, rs, _ in dual.blocks(fs) if r is rep]
    assert set(rows) in block_rows and {odd} in block_rows


def _count_walks(monkeypatch):
    """A list that gains one entry per dual.column_values walk."""
    walks, walk = [], dual.column_values

    def counted(*args):
        walks.append(args[0])
        return walk(*args)

    monkeypatch.setattr(dual, "column_values", counted)
    return walks


def test_centrality_and_ad_invariance_walk_once_per_block(ws3, monkeypatch):
    # the rows (k, k) of mrep(u) that c_1(u) and the l(u^i_j) read merge:
    # is_central walks once per (commutator rep, L-row), 4 x 3, not 36 times,
    # and ad-invariance once per sign, not once per sign and row
    u = ws3.corep("u")
    c = fodc.central_element(ws3, u, TRIVIAL)
    basis = [ws3.l_entry(u, i, j) for i in range(3) for j in range(3)]
    rows = _span_rows(ws3, basis, 3)
    walks = _count_walks(monkeypatch)
    assert fodc.is_central(ws3, c, 3)
    assert len(walks) == 12
    del walks[:]
    assert ws3._ad_invariant(basis, rows, 3)
    assert len(walks) == 2


# -- separation -------------------------------------------------------------

def test_separated_equal_reflexive(ws2):
    a = g(1, 1) * g(2, 2)
    eq, deg = ws2.separated_equal(a, a)
    assert eq and deg == 0


def test_separated_equal_antipode_axiom(ws2):
    tab = ws2.antipode_table()
    total = CoordElem()
    for k in range(1, 3):
        total = total + tab[0][k - 1] * g(k, 1)
    assert ws2.separated_equal(total, CoordElem.unit())[0]


@pytest.mark.parametrize("config", [
    FieldConfig.sl(2), FieldConfig.sl(3), FieldConfig.sl(4),
    FieldConfig.sp(1), FieldConfig.sp(2),
], ids=["sl2", "sl3", "sl4", "sp2", "sp4"])
def test_one_sided_antipode_axiom_matches_both_sides(config):
    # the mirrored identity never changes a verdict: under a separating
    # representation the one-sided identity says A B = I for square matrices
    ws = Workspace(config)
    verdicts = []
    for tab in ws._antipode_candidates():
        verdict = ws._antipode_axiom_holds(tab)
        assert verdict == antipode_axiom_holds_both_sides(ws, tab)
        verdicts.append(verdict)
    assert verdicts.count(True) == 1
    tab = [list(row) for row in ws.antipode_table()]
    tab[0][0] = tab[0][0].scaled(Scalar.from_int(2))
    assert not ws._antipode_axiom_holds(tab)
    assert not antipode_axiom_holds_both_sides(ws, tab)


def test_separated_equal_detects_inequality(ws2):
    assert not ws2.separated_equal(g(1, 1), CoordElem.unit())[0]
    # the FRT commutation relation ab = q ba holds in the quotient
    q = ws2.config.q
    ab = g(1, 1) * g(1, 2)
    ba = g(1, 2) * g(1, 1)
    assert ws2.separated_equal(ab, ba.scaled(q))[0]
    assert not ws2.separated_equal(ab, ba)[0]


def test_separated_equal_reports_the_separating_length(ws2):
    # the counit and L+ vanish on u^1_2; L-, the third representation of the
    # family, separates it at convolution length 1
    assert ws2.separated_equal(g(1, 2), CoordElem()) == (False, 1)


def test_functional_equal_reports_degree(ws2):
    f = ws2.lplus_entry(1, 1)
    eq, deg = ws2.functional_equal(f, f, degree=2)
    assert eq and deg == 2
    h = ws2.lminus_entry(1, 1)
    eq2, _ = ws2.functional_equal(f, h, degree=2)
    assert not eq2


def test_functional_equal_reports_the_least_differing_degree(ws3):
    # l(u)^1_1 and 2 tau(-2 omega_1) already differ on the empty word
    f = ws3.l_entry(ws3.corep("u"), 0, 0)
    tau = ws3.tau_functional(YoungWeight.fundamental(1)).scaled(Scalar.from_int(2))
    assert ws3.functional_equal(f, tau, degree=4) == (False, 0)


# -- coideal ----------------------------------------------------------------

def test_coideal_counit_alone(ws2):
    assert ws2.coideal_check([ws2.eps_functional()], 2)[0]


def test_coideal_lplus_entry_fails(ws2):
    # a single off-diagonal L+ entry spans no coideal (l+^1_2 is the
    # nonzero off-diagonal entry in this convention; l+^2_1 vanishes)
    f = ws2.lplus_entry(1, 2)
    assert evaluate(f, g(2, 1)) != ZERO
    assert not ws2.coideal_check([f], 2)[0]


def _span_rows(ws, basis, degree):
    return dual.word_values(basis, degree) + [dual.eps_word_values(degree, ws.N)]


def test_right_coideal_certificate_rejects_off_diagonal(ws2):
    # part (i): a right translate of l+^1_2 leaves span{l+^1_2, eps}
    basis = [ws2.lplus_entry(1, 2)]
    assert not ws2._right_coideal(_span_rows(ws2, basis, 2), 2)


def test_ad_invariance_certificate_rejects_diagonal(ws2):
    # l+^2_1 = 0 makes l+^1_1 group-like, so its span with eps is a right
    # coideal, but ad_R moves it out of the span; only part (ii) sees that
    basis = [ws2.lplus_entry(1, 1)]
    rows = _span_rows(ws2, basis, 2)
    assert ws2._right_coideal(rows, 2)
    assert not ws2._ad_invariant(basis, rows, 2)
    assert not ws2.coideal_check(basis, 2)[0]


def all_suffix_right_coideal(rows, degree):
    """Reference for Workspace._right_coideal: for every basis row X (all
    rows but the last, eps) and every nonempty word b, X(. b) on words of
    degree <= degree - |b| lies in the span of the rows truncated to that
    degree."""
    spans = [
        linalg.echelon([{w: v for w, v in r.items() if len(w) <= lim} for r in rows])
        for lim in range(degree)
    ]
    for row in rows[:-1]:
        translates = {}
        for wb, v in row.items():
            for cut in range(len(wb)):
                translates.setdefault(wb[cut:], {})[wb[:cut]] = v
        for b, translate in translates.items():
            if not linalg.in_row_space(spans[degree - len(b)], translate):
                return False
    return True


@pytest.mark.parametrize("entry, verdict", [((1, 2), False), ((1, 1), True)])
def test_generator_translates_decide_the_right_coideal(ws2, entry, verdict):
    # the two L+ entries of the rejection tests above
    rows = _span_rows(ws2, [ws2.lplus_entry(*entry)], 2)
    assert ws2._right_coideal(rows, 2) == all_suffix_right_coideal(rows, 2) == verdict


@pytest.mark.parametrize("config, zetas", [
    (FieldConfig.sl(2), ("1", "-1")),
    (FieldConfig.sl(3), ("1", "w")),
    (FieldConfig.sl(4), ("1", "-1", "w")),
    (FieldConfig.sp(2), ("1", "-1")),
])
def test_generator_translates_match_all_suffixes_on_lie_bases(config, zetas):
    ws = Workspace(config)
    degree = dual.CHECK_DEGREE
    for zeta in zetas:
        lie = fodc.QuantumLieAlgebra(ws, ws.corep("u"), parse_zeta(config, zeta))
        rows = _span_rows(ws, [x for x in lie.basis if x.terms], degree)
        verdicts = ws._right_coideal(rows, degree), all_suffix_right_coideal(rows, degree)
        # X_zeta(u) + C eps is a right coideal
        assert verdicts == (True, True)


# -- comatrix check ----------------------------------------------------------

def _recording_separations(verdicts):
    """Patch Workspace.separated_equal to append each verdict it returns."""
    separated_equal = Workspace.separated_equal

    def recorded(self, a, b, length=None):
        verdicts.append(separated_equal(self, a, b, length))
        return verdicts[-1]

    return mock.patch.object(Workspace, "separated_equal", recorded)


def test_minor_coreps_register_without_separation():
    # every leg that a letter (eps, L+ or L-) leaves on the first tensor leg
    # of a minor's defect is exactly zero, so no leg needs separating
    ws = Workspace(FieldConfig.sl(4))
    ws.exterior_relations()
    verdicts = []
    with _recording_separations(verdicts):
        for desc, dim in (("minor:2", 6), ("minor:3", 4)):
            cor = ws.corep(desc)
            assert ws._coreps[desc] is cor and cor.dim == dim
    assert verdicts == []


# the checked corepresentations: (N of SL_q(N), descriptor)
CHECKED_COREPS = [
    (3, "uc"),
    (3, "minor:2"),
    (3, "proj:sym(tensor(u,u))"),
    (3, "proj:anti(tensor(u,u))"),
    (2, "proj:sym(tensor(u,u))"),
]


@functools.lru_cache(maxsize=None)
def _sl_workspace(N):
    return Workspace(FieldConfig.sl(N))


def _gen_words(N, min_size, max_size):
    gens = st.tuples(st.integers(1, N), st.integers(1, N))
    return st.lists(gens, min_size=min_size, max_size=max_size).map(tuple)


def _ideal_element(ws, i, j, left):
    """left (sum_k S(u^i_k) u^k_j - delta_ij): zero in O(G_q), not in the
    free algebra."""
    tab = ws.antipode_table()
    x = CoordElem()
    for k in range(1, ws.N + 1):
        x = x + tab[i - 1][k - 1] * g(k, j)
    if i == j:
        x = x - CoordElem.unit()
    return CoordElem.from_word(left) * x


def _comatrix_check_passes(ws, cor):
    try:
        ws._check_comatrix(cor)
    except coordalg.NotInvariantError:
        return False
    return True


@settings(deadline=None, max_examples=40)
@given(case=st.sampled_from(CHECKED_COREPS), change=st.sampled_from(["scale", "word", "ideal"]),
       c=scalars(), data=st.data())
def test_comatrix_check_matches_the_pairwise_reference(case, change, c, data):
    # one entry of a checked corep is changed; the letter check and the
    # length-2 x length-2 reference must agree.  The counit table is not
    # kept (the check reads only entries), so any change is allowed.
    n, desc = case
    ws = _sl_workspace(n)
    cor = ws.corep(desc)
    N = ws.N
    a = data.draw(st.integers(0, cor.dim - 1), "row")
    b = data.draw(st.integers(0, cor.dim - 1), "col")
    entries = [list(row) for row in cor.entries]
    if change == "scale":
        assume(not (c - ONE).is_zero())
        entries[a][b] = entries[a][b].scaled(c)
    elif change == "word":
        entries[a][b] = entries[a][b] + CoordElem.from_word(data.draw(_gen_words(N, 1, 2)), c)
    else:
        i = data.draw(st.integers(1, N), "i")
        j = data.draw(st.integers(1, N), "j")
        left = data.draw(_gen_words(N, 0, 1), "left")
        entries[a][b] = entries[a][b] + _ideal_element(ws, i, j, left).scaled(c)
    changed = SimpleNamespace(entries=entries, dim=cor.dim, label=cor.label)
    verdicts = []
    with _recording_separations(verdicts):
        verdict = _comatrix_check_passes(ws, changed)
    assert verdict == comatrix_holds(ws, changed)
    if change == "ideal":
        # a valid corep whose legs vanish only modulo the defining ideal:
        # the separation step decides it, and its True is exercised
        assert verdict and verdicts


def test_comatrix_check_refuses_a_counit_table_other_than_the_identity():
    # the zero 1 x 1 matrix satisfies Delta(v) = v (x) v, so every letter
    # leaves a zero leg, but eps(v) = 0: it is no corepresentation
    ws = _sl_workspace(2)
    zero = SimpleNamespace(entries=[[CoordElem()]], dim=1, label="zero")
    with pytest.raises(coordalg.NotInvariantError, match="counit"):
        ws._check_comatrix(zero)


def test_comatrix_check_separates_at_length_three():
    # (u^1_2)^3 added to an entry of SL_q(2) proj:sym leaves a leg that the
    # separating family first tells from zero at length 3, so a separation
    # stopped at the letters would register the broken corep
    ws = _sl_workspace(2)
    cor = ws.corep("proj:sym(tensor(u,u))")
    entries = [list(row) for row in cor.entries]
    entries[0][0] = entries[0][0] + CoordElem.from_word(((1, 2),) * 3)
    changed = SimpleNamespace(entries=entries, dim=cor.dim, label=cor.label)
    verdicts = []
    with _recording_separations(verdicts):
        assert not _comatrix_check_passes(ws, changed)
    assert verdicts[-1] == (False, 3)
    assert not comatrix_holds(ws, changed)


# (series, n, descriptor) whose letter legs the walk must reproduce
WALKED_COREPS = [
    ("sl", 3, "uc"),
    ("sl", 3, "minor:2"),
    ("sl", 3, "proj:sym(tensor(u,u))"),
    ("sl", 3, "proj:anti(tensor(u,u))"),
    ("sl", 3, "tensor(u,u)"),
    ("sl", 4, "uc"),
    ("sl", 4, "minor:3"),
    ("sp", 2, "proj:sym(tensor(u,u))"),
    ("sl", 2, "proj:sym(tensor(u,u))"),
]


@functools.lru_cache(maxsize=None)
def _sp_workspace(n):
    return Workspace(FieldConfig.sp(n))


def _sorted_legs(legs):
    return sorted((i, j, sorted((w, str(c)) for w, c in leg.items())) for i, j, leg in legs)


@pytest.mark.parametrize("changed", [False, True], ids=["as-built", "changed"])
@pytest.mark.parametrize("series, n, desc", WALKED_COREPS)
def test_comatrix_walk_matches_the_materialised_legs(series, n, desc, changed):
    # the legs that the letter walk leaves on each side equal the legs of
    # the defect materialised through coordalg.coproduct; "changed" scales
    # one entry and adds a word to another, so that both sides leave legs
    ws = _sl_workspace(n) if series == "sl" else _sp_workspace(n)
    cor = ws.corep(desc)
    if changed:
        entries = [list(row) for row in cor.entries]
        last = cor.dim - 1
        entries[0][last] = entries[0][last].scaled(Scalar.from_int(2))
        word = CoordElem.from_word(((1, 2), (2, 1)), Scalar.p_power(1))
        entries[last][0] = entries[last][0] + word
        cor = SimpleNamespace(entries=entries, dim=cor.dim, label=cor.label)
    letters = [(m, dual._entry_matrices(m, cor)) for _, m in ws.separating_reps(1)]
    walks = {}
    for side in (0, 1):
        walked = list(dual._comatrix_legs(cor, letters, side, walks))
        assert _sorted_legs(walked) == _sorted_legs(letter_legs(ws, cor, side))
        if changed:
            assert walked


def test_corep_rep_multiplicative(ws3):
    # spot-verify the structural multiplicativity of a constructed
    # corepresentation rep on random word pairs
    rep = ws3.l_corep(ws3.corep("minor:2"))
    rng = random.Random(73)
    for _ in range(8):
        w1 = rand_word(rng, 3, 2)
        w2 = rand_word(rng, 3, 1)
        prod = linalg.mat_mul(rep.word_matrix(w1), rep.word_matrix(w2))
        assert linalg.mat_eq(prod, rep.word_matrix(w1 + w2))


def test_two_leg_telescoping_identity(ws3):
    # the mechanism behind the minor/tau pairing identity: for the size-2
    # minor corepresentation with I = (1,2),
    # sum_M S(l-(D^I_M)) (x) l+(D^M_I) = (l+^1_1 l+^2_2) (x) (l+^1_1 l+^2_2)
    # as functionals on word pairs
    v2 = ws3.corep("minor:2")
    srep = ws3.antipode_l_corep(ws3.lminus, v2)
    lp = ws3.l_corep(v2)
    cp2 = power(ws3, ws3.lplus, 2)
    lab = (1, 2)
    rng = random.Random(99)
    words = all_words(3, 2)
    for _ in range(20):
        w1, w2 = rng.choice(words), rng.choice(words)
        lhs = ZERO
        for m in range(1, 4):
            a = srep.entry_on_word(m, 1, w1)
            if a.is_zero():
                continue
            lhs = lhs + a * lp.entry_on_word(m, 1, w2)
        rhs = cp2.entry_on_word(lab, lab, w1) * cp2.entry_on_word(lab, lab, w2)
        assert lhs == rhs


def test_minor_tau_stable_at_degree_five(ws2):
    # the degree-4 certification of the pairing identity does not flip at
    # the next degree
    u = ws2.corep("u")
    tau = ws2.tau_functional(YoungWeight((1,)))
    eq, deg = ws2.functional_equal(ws2.l_entry(u, 0, 0), tau, degree=5)
    assert eq and deg == 5


def test_composite_weight_pairing_sl2(ws2):
    # products of the distinguished coefficients pair to composite weights:
    # l(D_{q,1} * D_{q,1}) = tau(-2 * 2 omega_1)
    d1 = principal_minor(ws2, 1)
    f = ws2.l_of(d1 * d1)
    tau = ws2.tau_functional(YoungWeight((2,)))
    eq, _ = ws2.functional_equal(f, tau, degree=4)
    assert eq


def test_composite_weight_pairing_sl3(ws3):
    # the induction step across Young-frame columns:
    # l(D_{q,1} * D_{q,2}) = tau(-2(omega_1 + omega_2))
    prod = principal_minor(ws3, 1) * principal_minor(ws3, 2)
    f = ws3.l_of(prod)
    tau = ws3.tau_functional(YoungWeight((1, 1)))
    eq, _ = ws3.functional_equal(f, tau, degree=3)
    assert eq
