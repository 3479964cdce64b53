import itertools
import json
import random

import pytest

from qfodc import coordalg, dual, linalg, rmat
from qfodc.coordalg import CoordElem, YoungWeight, coproduct, coproduct_splits
from qfodc.cyclotomic import Zeta, all_admissible
from qfodc.dual import (
    AntipodeFailureError,
    Functional,
    Policy,
    RankUnstableError,
    UnsupportedFunctionalError,
    Workspace,
    all_words,
    antipode_rep,
    conv,
    eps_zeta_rep,
)
from qfodc.scalar import FieldConfig, ONE, Scalar, ZERO

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
    assert ws2.lplus_entry(1, 1).evaluate(g(1, 1)) == z * q
    # sparsity: zero wherever the R support forbids it
    assert ws2.lplus_entry(1, 2).evaluate(g(1, 2)).is_zero()
    assert ws2.lplus_entry(2, 1).evaluate(g(1, 1)).is_zero()


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
                        got = f.evaluate(g(a, b))
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
                assert f.evaluate(CoordElem.from_word(w)) == want


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
        assert f.evaluate(CoordElem.from_word(w)) == CoordElem.from_word(w).counit()


def test_conv_counit_law(ws2):
    lifted = conv(eps_zeta_rep(ws2.config, Zeta(1, 0)), ws2.lplus)
    rng = random.Random(7)
    for _ in range(10):
        w = rand_word(rng, 2, 3)
        for i in range(1, 3):
            for j in range(1, 3):
                a = Functional([(lifted, (0, i), (0, j), ONE)]).evaluate(
                    CoordElem.from_word(w)
                )
                b = ws2.lplus_entry(i, j).evaluate(CoordElem.from_word(w))
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
                        got = Functional([(rep, (i, k), (j, l), ONE)]).evaluate(
                            CoordElem.from_word(w)
                        )
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
            got = Functional([(rep, (0, i), (0, i), ONE)]).evaluate(
                CoordElem.from_word(w)
            )
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
                    dual.nested_label(r): {dual.nested_label(c): v for c, v in row.items()}
                    for r, row in m.items()
                }
                for key, m in _chain_power(f, k).items()
            }
            assert dual.conv_power(f, k).gens == want, (f.name, k)


def test_conv_power_rejects_k_below_one(ws2):
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            dual.conv_power(ws2.lplus, k)


def test_conv_shares_one_object_per_distinct_value(ws3):
    values = [v for m in dual.conv_power(ws3.lplus, 3).gens.values()
              for row in m.values() for v in row.values()]
    assert len({id(v) for v in values}) == len(set(values)) < len(values)


def test_pair_words_on_the_empty_fixed_word_is_the_counit(ws2):
    rng = random.Random(5)
    for base in (ws2.lplus, ws2.lminus):
        assert ws2._pair_words(base, (), ()) == ONE
        for _ in range(10):
            w = rand_word(rng, 2, 3)
            assert ws2._pair_words(base, w, ()) == CoordElem.from_word(w).counit()


# -- r-form -----------------------------------------------------------------

def test_r_form_unit_laws(ws2):
    rng = random.Random(3)
    for _ in range(10):
        b = CoordElem.from_word(rand_word(rng, 2, 2))
        assert ws2.r_form(CoordElem.unit(), b) == b.counit()
        assert ws2.r_form(b, CoordElem.unit()) == b.counit()


def test_r_form_generator_values(ws2):
    q = ws2.config.q
    z = ws2.rdata.z
    lam = q - q.inverse()
    for i in range(1, 3):
        for j in range(1, 3):
            for n in range(1, 3):
                for m in range(1, 3):
                    got = ws2.r_form(g(i, j), g(n, m))
                    assert got == z * ws2.rdata.entry(i, n, j, m)
    assert ws2.r_form(g(2, 1), g(1, 2)) == z * lam


def test_r_form_bicharacter_axioms(ws2):
    # r(ab (x) c) = r(a (x) c1) r(b (x) c2) and
    # r(a (x) bc) = r(a1 (x) c) r(a2 (x) b)   [note the leg reversal]
    rng = random.Random(29)
    N = 2
    for _ in range(12):
        a = rand_word(rng, N, 2)
        b = rand_word(rng, N, 2)
        c = rand_word(rng, N, 2)
        lhs = ws2._pair_words(ws2.lplus, a + b, c)
        rhs = ZERO
        for c1, c2 in coproduct_splits(c, N):
            rhs = rhs + ws2._pair_words(ws2.lplus, a, c1) * ws2._pair_words(ws2.lplus, b, c2)
        assert lhs == rhs
        lhs2 = ws2._pair_words(ws2.lplus, a, b + c)
        rhs2 = ZERO
        for a1, a2 in coproduct_splits(a, N):
            rhs2 = rhs2 + ws2._pair_words(ws2.lplus, a1, c) * ws2._pair_words(ws2.lplus, a2, b)
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
                total = total + ws2._pair_words(ws2.lminus, b1, a1) * \
                    ws2._pair_words(ws2.lplus, a2, b2)
        assert total == a.counit() * b.counit()
        # and the other composition order
        total = ZERO
        for (a1, a2) in coproduct_splits(wa, N):
            for (b1, b2) in coproduct_splits(wb, N):
                total = total + ws2._pair_words(ws2.lplus, a1, b1) * \
                    ws2._pair_words(ws2.lminus, b2, a2)
        assert total == a.counit() * b.counit()


def test_rbar_agrees_with_antipode_composition(ws2):
    # rbar(a (x) b) = r(S(a) (x) b)
    rng = random.Random(37)
    for _ in range(10):
        wa = rand_word(rng, 2, 2)
        wb = rand_word(rng, 2, 2)
        a = CoordElem.from_word(wa)
        b = CoordElem.from_word(wb)
        assert ws2.rbar_form(a, b) == ws2.r_form(ws2.antipode(a), b)


# -- q-form and l-functionals --------------------------------------------------

def test_l_of_unit_is_counit(ws2):
    f = ws2.l_of(CoordElem.unit())
    rng = random.Random(41)
    for _ in range(8):
        w = rand_word(rng, 2, 3)
        assert f.evaluate(CoordElem.from_word(w)) == CoordElem.from_word(w).counit()


def test_l_of_matches_q_form(ws2):
    rng = random.Random(43)
    for _ in range(8):
        a = CoordElem.from_word(rand_word(rng, 2, 2))
        x = CoordElem.from_word(rand_word(rng, 2, 2))
        assert ws2.l_of(a).evaluate(x) == ws2.q_form(x, a)


def test_l_of_generator_matches_l_entry(ws2):
    u = ws2.corep("u")
    rng = random.Random(47)
    for i in range(2):
        for j in range(2):
            f = ws2.l_of(g(i + 1, j + 1))
            h = ws2.l_entry(u, i, j)
            for _ in range(6):
                w = CoordElem.from_word(rand_word(rng, 2, 3))
                assert f.evaluate(w) == h.evaluate(w)


def test_l_entry_minor_agrees_with_word_expansion(ws3):
    # the minor corepresentation route and the graded tensor-power route
    # produce the same functional on free words
    m2 = ws3.corep("minor:2")
    via_minor = ws3.l_entry(m2, 0, 0)
    via_words = ws3.l_of(ws3.principal_minor(2))
    rng = random.Random(53)
    for _ in range(6):
        w = CoordElem.from_word(rand_word(rng, 3, 2))
        assert via_minor.evaluate(w) == via_words.evaluate(w)


def test_sl2_l_of_determinant_word(ws2):
    # l(D_{q,2}-word) = tau(-2 omega_2-analogue) = (l+^1_1 l+^2_2)^2; for
    # SL_q(2) the frame [0,1] does not exist, but the determinant word
    # pairs like the unit: l(det) = eps
    det = ws2.principal_minor(2)
    eq, deg = ws2.functional_equal(ws2.l_of(det), ws2.eps_functional(), degree=3)
    assert eq


def test_tau_zero_is_counit(ws2):
    f = ws2.tau_functional(YoungWeight(()))
    rng = random.Random(59)
    for _ in range(6):
        w = CoordElem.from_word(rand_word(rng, 2, 3))
        assert f.evaluate(w) == w.counit()


def test_tau_omega1_is_lplus_square(ws2):
    tau = ws2.tau_functional(YoungWeight((1,)))
    rng = random.Random(61)
    for _ in range(8):
        w = rand_word(rng, 2, 3)
        want = ZERO
        for w1, w2 in coproduct_splits(w, 2):
            want = want + ws2.lplus.entry_on_word(1, 1, w1) * \
                ws2.lplus.entry_on_word(1, 1, w2)
        assert tau.evaluate(CoordElem.from_word(w)) == want


def test_k_functionals(ws3):
    q = ws3.config.q
    # <K_{alpha_i}, u^r_r> = q_i^{-delta^i_r + delta^{i+1}_r} for r <= n
    for i in (1, 2):
        ka = ws3.k_alpha_functional(i)
        for r in (1, 2):
            want = q ** (-(1 if i == r else 0) + (1 if i + 1 == r else 0))
            assert ka.evaluate(g(r, r)) == want
    k1 = ws3.k_functional(1)
    assert k1.evaluate(g(1, 1)) == ws3.lminus_entry(1, 1).evaluate(g(1, 1))


# -- adjoint action ---------------------------------------------------------

def test_ad_r_by_counit_is_identity(ws2):
    epsf = ws2.eps_functional()
    x = ws2.l_entry(ws2.corep("u"), 0, 1)
    img = ws2.ad_r(epsf, x)
    rng = random.Random(67)
    for _ in range(8):
        w = CoordElem.from_word(rand_word(rng, 2, 3))
        assert img.evaluate(w) == x.evaluate(w)


def test_ad_r_on_counit(ws2):
    # ad_R(f) eps = f(1) eps
    f = ws2.lplus_entry(1, 1)
    img = ws2.ad_r(f, ws2.eps_functional())
    f1 = f.value_at_unit()
    rng = random.Random(71)
    for _ in range(8):
        w = CoordElem.from_word(rand_word(rng, 2, 3))
        assert img.evaluate(w) == f1 * w.counit()


def test_ad_r_rejects_multi_rep(ws2):
    f = ws2.lplus_entry(1, 1) + ws2.lminus_entry(1, 1)
    with pytest.raises(UnsupportedFunctionalError):
        ws2.ad_r(f, ws2.eps_functional())


# -- evaluation matrices, ranks --------------------------------------------

def test_rank_of_counit(ws2):
    assert linalg.rank(dual.word_values([ws2.eps_functional()], 2)) == 1


def test_span_ranks():
    a = {(): ONE}
    b = {((1, 1),): ONE}
    c = {((1, 2),): ONE}
    a_plus_b = {(): ONE, ((1, 1),): ONE}
    # equal spans, written with different rows
    assert linalg.span_ranks([a, b], [a_plus_b, b]) == ([2, 2], 2)
    # strict containment: the first span lies inside the second
    assert linalg.span_ranks([a], [a, c]) == ([1, 2], 2)
    # independent sets: the union is the sum
    assert linalg.span_ranks([a, b], [c]) == ([2, 1], 3)


def test_l_entries_rank_stabilizes_at_five(ws2):
    u = ws2.corep("u")
    fs = [ws2.l_entry(u, i, j) for i in range(2) for j in range(2)]
    fs.append(ws2.eps_functional())
    r, deg, _ = ws2.stabilized_rank(lambda d: dual.word_values(fs, d))
    assert r == 5
    assert deg == 3


def test_trivial_corep_rank_one(ws2):
    one = ws2.corep("1")
    fs = [ws2.l_entry(one, 0, 0)]
    r, _, _ = ws2.stabilized_rank(lambda d: dual.word_values(fs, d))
    assert r == 1  # only eps survives


def test_stabilized_rank_unstable_raises(ws2):
    # rank d at degree d never repeats within the window
    with pytest.raises(RankUnstableError):
        ws2.stabilized_rank(lambda d: [{(i,): ONE} for i in range(d)],
                            Policy(start_degree=2, stability_window=2, d_max=3))


def test_policy_rejects_out_of_range():
    for kw in ({"start_degree": 0}, {"stability_window": 0},
               {"separation_length": 0}, {"d_max": 1},
               {"start_degree": 2, "stability_window": 5, "d_max": 5},
               {"stability_window": 3, "d_max": 3}):
        with pytest.raises(ValueError):
            Policy(**kw)
    # the smallest d_max that leaves room for a full stability window
    assert Policy(start_degree=2, stability_window=3, d_max=4).d_max == 4


def test_word_traversal_stops_below_degree_zero(ws2):
    m = ws2.mrep(ws2.corep("u"))
    x0 = {(1, 1): ONE}
    assert list(dual.iter_word_states(m, x0, -1)) == [((), x0)]


def test_export_eval_matrix(ws2):
    out = ws2.export_eval_matrix([ws2.eps_functional()], 1)
    assert out["columns"][0] == "1"
    assert out["rows"][0][0] == "1"
    json.dumps(out)


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


# -- coideal ----------------------------------------------------------------

def test_coideal_counit_alone(ws2):
    assert ws2.coideal_check([ws2.eps_functional()], 2)[0]


def test_coideal_lplus_entry_fails(ws2):
    # a single off-diagonal L+ entry spans no coideal (l+^1_2 is the
    # nonzero off-diagonal entry in this convention; l+^2_1 vanishes)
    f = ws2.lplus_entry(1, 2)
    assert f.evaluate(g(2, 1)) != ZERO
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


def test_corep_rep_multiplicative(ws3):
    # spot-verify the structural multiplicativity of a constructed
    # corepresentation rep on random word pairs
    rep = ws3.l_corep(ws3.lplus, ws3.corep("minor:2"))
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
    srep = antipode_rep(ws3.l_corep(ws3.lminus, v2), ws3.config)
    lp = ws3.l_corep(ws3.lplus, v2)
    cp2 = ws3.power(ws3.lplus, 2)
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
    d1 = ws2.principal_minor(1)
    f = ws2.l_of(d1 * d1)
    tau = ws2.tau_functional(YoungWeight((2,)))
    eq, _ = ws2.functional_equal(f, tau, degree=4)
    assert eq


def test_composite_weight_pairing_sl3(ws3):
    # the induction step across Young-frame columns:
    # l(D_{q,1} * D_{q,2}) = tau(-2(omega_1 + omega_2))
    prod = ws3.principal_minor(1) * ws3.principal_minor(2)
    f = ws3.l_of(prod)
    tau = ws3.tau_functional(YoungWeight((1, 1)))
    eq, _ = ws3.functional_equal(f, tau, degree=3)
    assert eq
