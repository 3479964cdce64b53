import random

import pytest

from qfodc import coordalg, dual, fodc, linalg
from qfodc.cli import parse_zeta
from qfodc.coordalg import CoordElem, coproduct_splits
from qfodc.cyclotomic import Zeta
from qfodc.dual import Functional, Workspace, all_words
from qfodc.scalar import FieldConfig, ONE, ZERO
import oracles
from oracles import evaluate, right_ideal_member

g = CoordElem.generator


@pytest.fixture(scope="module")
def ws2():
    return Workspace(FieldConfig.sl(2))


@pytest.fixture(scope="module")
def ws3():
    return Workspace(FieldConfig.sl(3))


@pytest.fixture(scope="module")
def wsp4():
    return Workspace(FieldConfig.sp(2))


# -- quantum Lie algebras ------------------------------------------------------

def test_trivial_pairs(ws2):
    lie = fodc.quantum_lie(ws2, ws2.corep("1"), Zeta(1, 0))
    assert lie.certified_dim == 0
    lie2 = fodc.quantum_lie(ws2, ws2.corep("1"), Zeta(2, 1))
    assert lie2.certified_dim == 1


def test_sl2_dims(ws2):
    u = ws2.corep("u")
    for j in (0, 1):
        lie = fodc.quantum_lie(ws2, u, Zeta(2, j))
        assert lie.certified_dim == 4
        assert lie.rank_with_eps == 5


def record_eliminations(monkeypatch):
    """Patch linalg.extend_tracked to record [(basis, row), ...], one entry
    per row eliminated; holding each basis keeps the lists apart by
    identity."""
    calls = []
    extend_tracked = linalg.extend_tracked

    def recorded(basis, row, coeffs):
        calls.append((basis, row))
        return extend_tracked(basis, row, coeffs)

    monkeypatch.setattr(linalg, "extend_tracked", recorded)
    return calls


@pytest.mark.parametrize("config, dim", [(FieldConfig.sl(3), 9), (FieldConfig.sp(2), 16)])
def test_full_rank_certified_without_elimination(config, dim, monkeypatch):
    # a full-rank set is certified on its words of length <= 1: once no
    # combination of the rows vanishes there, rows_at is not called again,
    # and no longer word is eliminated
    ws = Workspace(config)
    u = ws.corep("u")
    lie = fodc.QuantumLieAlgebra(ws, u, Zeta(1, 0))
    degrees = []
    rows = lie.rows

    def rows_at(d):
        degrees.append(d)
        return rows(d)

    lie.rows = rows_at
    calls = record_eliminations(monkeypatch)
    assert lie.certify_dim() == (dim, dual.START_DEGREE + 1)
    assert lie.rank_with_eps == dim + 1
    assert degrees == [dual.START_DEGREE]
    assert calls and max(len(w) for _, row in calls for w in row) == 1


def test_rank_deficient_set_eliminates_once_per_degree(ws2, monkeypatch):
    calls = record_eliminations(monkeypatch)
    lie = fodc.quantum_lie(ws2, ws2.corep("dsum(1,u)"), Zeta(1, 0))
    assert (lie.certified_dim, lie.rank_with_eps) == (4, 5)
    # each elimination holds the words of one length, and each length up
    # to cert_degree is eliminated at most once
    lengths = []
    for basis in {id(b): b for b, _ in calls}.values():
        seen = {len(w) for b, row in calls if b is basis for w in row}
        assert len(seen) <= 1
        lengths += seen
    assert len(lengths) == len(set(lengths))
    assert set(lengths) <= set(range(lie.cert_degree + 1))


def test_lie_rows_grow_by_one_word_length():
    # the contract of stabilized_rank: lie_rows(d) cut to the words shorter
    # than d is lie_rows(d - 1)
    cases = [(FieldConfig.sl(2), c, z) for c in ("u", "tensor(u,u)", "dsum(1,u)")
             for z in ("1", "-1")]
    cases += [(FieldConfig.sl(3), c, z) for c in ("u", "tensor(u,u)", "dsum(1,u)")
              for z in ("1", "w")]
    cases.append((FieldConfig.sp(2), "u", "1"))
    for config, corep, z in cases:
        ws = Workspace(config)
        v, zeta = ws.corep(corep), parse_zeta(config, z)
        shorter = fodc.lie_rows(ws, v, zeta, dual.START_DEGREE - 1)
        for d in range(dual.START_DEGREE, dual.CHECK_DEGREE + 1):
            rows = fodc.lie_rows(ws, v, zeta, d)
            assert list(rows) == list(shorter)
            cut = {k: {w: x for w, x in row.items() if len(w) < d} for k, row in rows.items()}
            assert cut == shorter, (config, corep, z, d)
            shorter = rows


@pytest.mark.parametrize("config, corep, zeta", [
    (FieldConfig.sl(2), "u", "1"),
    (FieldConfig.sl(2), "u", "-1"),
    (FieldConfig.sl(3), "u", "w"),
    (FieldConfig.sl(2), "dsum(1,u)", "1"),
    (FieldConfig.sl(2), "dsum(1,u)", "-1"),
    (FieldConfig.sp(2), "u", "1"),
])
def test_rank_with_eps_is_the_rank_with_the_counit_row(config, corep, zeta):
    ws = Workspace(config)
    lie = fodc.quantum_lie(ws, ws.corep(corep), parse_zeta(config, zeta))
    d = lie.cert_degree
    rows = lie.rows(d) + [dual.eps_word_values(d, ws.N)]
    assert lie.rank_with_eps == linalg.rank(rows)


def test_x_vanishes_at_unit(ws2):
    u = ws2.corep("u")
    lie = fodc.quantum_lie(ws2, u, Zeta(2, 1))
    for x in lie.basis:
        assert x.value_at_unit().is_zero()


def test_fast_rows_match_generic(ws2, ws3):
    # the zeta-grading shortcut must agree with honest evaluation of the
    # X functionals housed in conv(eps_zeta, mrep)
    for ws, zeta in ((ws2, Zeta(2, 1)), (ws3, Zeta(3, 1))):
        u = ws.corep("u")
        lie = fodc.QuantumLieAlgebra(ws, u, zeta)
        fast = lie.rows(2)
        slow = dual.word_values(lie.basis, 2)
        assert len(fast) == len(slow)
        for fr, sr in zip(fast, slow):
            keys = set(fr) | set(sr)
            for w in keys:
                a = fr.get(w, ZERO)
                b = sr.get(w, ZERO)
                d = a - b
                assert d.is_zero()


def test_coideal_certificates(ws2):
    u = ws2.corep("u")
    lie = fodc.quantum_lie(ws2, u, Zeta(2, 1))
    ok, deg = lie.coideal_certificate(3)
    assert ok and deg == 3
    # a random proper subset of the basis fails ad_R-invariance
    sub = [lie.basis[1], lie.basis[2]]
    assert not ws2.coideal_check(sub, 3)[0]


# -- differentials --------------------------------------------------------------

def test_differential_of_unit(ws2):
    cal = fodc.Calculus(ws2, ws2.corep("u"), Zeta(2, 1))
    d1 = cal.differential(CoordElem.unit())
    assert all(c.is_zero() for c in d1.values())


def test_differential_nonzero(ws2):
    cal = fodc.Calculus(ws2, ws2.corep("u"), Zeta(2, 1))
    d = cal.differential(g(1, 1))
    witnessed = False
    for coeff in d.values():
        eq, _ = ws2.separated_equal(coeff, CoordElem())
        if not eq:
            witnessed = True
    assert witnessed


def test_leibniz_random_pairs(ws2):
    cal = fodc.Calculus(ws2, ws2.corep("u"), Zeta(2, 1))
    rng = random.Random(0)
    words = all_words(2, 2)
    for _ in range(10):
        a = CoordElem.from_word(rng.choice(words))
        b = CoordElem.from_word(rng.choice(words))
        defect = cal.leibniz_defect(a, b)
        for coeff in defect.values():
            eq, _ = ws2.separated_equal(coeff, CoordElem(), length=2)
            assert eq


def test_trivial_calculus_d_zero(ws2):
    cal = fodc.Calculus(ws2, ws2.corep("1"), Zeta(1, 0))
    for w in all_words(2, 3):
        d = cal.differential(CoordElem.from_word(w))
        assert all(c.is_zero() for c in d.values())


def test_right_ideal_member(ws2):
    cal = fodc.Calculus(ws2, ws2.corep("u"), Zeta(2, 1))
    assert not right_ideal_member(cal, CoordElem.unit())
    cal0 = fodc.Calculus(ws2, ws2.corep("1"), Zeta(1, 0))
    e = g(1, 2) * g(2, 1)
    e = e - CoordElem.unit().scaled(e.counit())
    assert right_ideal_member(cal0, e)


def test_right_ideal_codimension(ws2):
    # for Gamma_{-1}(u) the ideal has codimension 5 inside ker eps on
    # degree <= 3 words: the evaluation matrix of {X_ij, eps} has rank 5
    lie = fodc.quantum_lie(ws2, ws2.corep("u"), Zeta(2, 1))
    rows = lie.rows(3)
    rows.append(dual.eps_word_values(3, 2))
    assert linalg.rank(rows) == 5


# -- central elements ------------------------------------------------------------

def test_d_inverse_trivial(ws2):
    one = ws2.corep("1")
    dinv = fodc.d_inverse_matrix(ws2, one)
    assert dinv == [[ONE]]


_SYM = "proj:sym(tensor(u,u))"
_ANTI = "proj:anti(tensor(u,u))"


@pytest.mark.parametrize("config, descriptors", [
    (FieldConfig.sl(2), ["1", "u", "dsum(1,u)", "tensor(u,u)", "uc", _SYM, _ANTI]),
    (FieldConfig.sl(3), ["1", "u", "dsum(1,u)", "tensor(u,u)", "uc", _SYM, _ANTI, "minor:2"]),
    (FieldConfig.sp(2), ["u", "uc", _SYM]),
], ids=["sl2", "sl3", "sp4"])
def test_d_inverse_matches_the_coordinate_antipode(config, descriptors):
    # S^2(l+[v]) read on v's entries against S^2 of the entries expanded by
    # the generator antipode table and paired by the r-form
    ws = Workspace(config)
    for desc in descriptors:
        v = ws.corep(desc)
        assert fodc.d_inverse_matrix(ws, v) == oracles.d_inverse_by_coordinates(ws, v), desc


def test_central_element_of_trivial_is_eps_zeta(ws2):
    z = Zeta(2, 1)
    c = fodc.central_element(ws2, ws2.corep("1"), z)
    rng = random.Random(5)
    words = all_words(2, 3)
    for _ in range(10):
        w = rng.choice(words)
        got = evaluate(c, CoordElem.from_word(w))
        want = z.power_value(len(w)) if all(i == j for i, j in w) else ZERO
        diff = got - want
        assert diff.is_zero() if not isinstance(diff, bool) else diff


def test_centrality_and_nonvanishing(ws2):
    z = Zeta(2, 1)
    u = ws2.corep("u")
    c = fodc.central_element(ws2, u, z)
    assert fodc.is_central(ws2, c, 3)
    pe = c - ws2.eps_functional().scaled(c.value_at_unit())
    row = pe.word_values(3)
    assert row  # nonzero
    lie = fodc.quantum_lie(ws2, u, z)
    assert linalg.in_row_space(linalg.echelon(lie.rows(3)), row)


def test_non_central_rejected(ws2):
    f = ws2.lplus_entry(1, 2)
    with pytest.raises(fodc.NotCentralError):
        fodc.quantum_lie_from_central(ws2, f)


def _split_sum(ws, f, g, degree):
    """Reference (f * g)(w) = sum of f(w1) g(w2) over the comatrix splits."""
    vf = f.word_values(degree)
    vg = g.word_values(degree)
    out = {}
    for w in all_words(ws.N, degree):
        total = ZERO
        for w1, w2 in coproduct_splits(w, ws.N):
            a, b = vf.get(w1), vg.get(w2)
            if a is not None and b is not None:
                total = a * b + total
        if not total.is_zero():
            out[w] = total
    return out


@pytest.mark.parametrize("wsname, zeta, degree", [
    ("ws2", Zeta(2, 1), 3),
    ("ws3", Zeta(3, 1), 2),
], ids=["sl2-zeta=-1", "sl3-zeta=w"])
def test_convolution_values_match_split_sum(wsname, zeta, degree, request):
    # conv-rep entries equal the split sum on every word, in both orders; the
    # non-central c + l+[1,2] tells c * f from f * c
    ws = request.getfixturevalue(wsname)
    c = fodc.central_element(ws, ws.corep("u"), zeta)
    idx = range(1, ws.N + 1)
    gens = [entry(i, j) for entry in (ws.lplus_entry, ws.lminus_entry) for i in idx for j in idx]
    pairs = [
        pair for h in (c, c + ws.lplus_entry(1, 2)) for f in gens for pair in ((h, f), (f, h))
    ]
    got = fodc.convolution_values(ws, [[(ONE, f, g)] for f, g in pairs], degree)
    for (f, g), row in zip(pairs, got):
        want = _split_sum(ws, f, g, degree)
        assert row.keys() == want.keys()
        assert all((row[w] - want[w]).is_zero() for w in want)


def test_centrality_mutation_rejected(ws3):
    c = fodc.central_element(ws3, ws3.corep("u"), Zeta(3, 1))
    assert fodc.is_central(ws3, c, 3)
    assert not fodc.is_central(ws3, c + ws3.lplus_entry(1, 2), 3)


def test_central_generation_matches_lie(ws2):
    z = Zeta(2, 1)
    u = ws2.corep("u")
    c = fodc.central_element(ws2, u, z)
    gens = fodc.quantum_lie_from_central(ws2, c)
    rows_c = dual.word_values(gens, 3)
    lie = fodc.quantum_lie(ws2, u, z)
    rows_x = lie.rows(3)
    assert linalg.rank(rows_c) == linalg.rank(rows_x) == linalg.rank(rows_c + rows_x)


def _translates_by_products(ws, c, gauge=Zeta(1, 0)):
    """Reference for quantum_lie_from_central: the rows
    a -> c(ab) - eps_{gauge^-1}(a) c(b) over |a|, |b| <= CHECK_DEGREE, read
    off c's values up to twice that degree and reduced greedily in
    all_words order.  Returns the picked words b and their rows."""
    degree = dual.CHECK_DEGREE
    ctab = c.word_values(2 * degree)
    eps = dual.eps_word_values(degree, ws.N, gauge.inverse())
    words = all_words(ws.N, degree)
    basis, picked, rows = [], [], []
    for b in words:
        cb = ctab.get(b, ZERO)
        row = {}
        for a in words:
            v = ctab.get(a + b, ZERO)
            if a in eps:
                v = eps[a] * -cb + v
            if not v.is_zero():
                row[a] = v
        rest = linalg.reduce_row(row, basis)
        if rest:
            basis += linalg.echelon([rest])
            picked.append(b)
            rows.append(row)
    return picked, rows


def _central_of(*descs, zeta):
    """ws -> the sum of c_zeta(v) over the coreps v named by descs."""
    return lambda ws: sum(
        (fodc.central_element(ws, ws.corep(d), zeta) for d in descs), Functional([]))


# (workspace, c, gauge, CHECK_DEGREE): the product reference reads c on
# words of twice the degree, so the Sp_q(4) and the cyclotomic SL_q(3)
# cases are decided at degree 2.  c1 + c2 is housed in two representations,
# and eps + eps_{-1} keeps chi[1] only because chi_b subtracts c(b) eps.
@pytest.mark.parametrize("wsname, central, gauge, degree", [
    ("ws2", _central_of("u", zeta=Zeta(2, 1)), Zeta(1, 0), 3),
    ("ws3", _central_of("u", zeta=Zeta(1, 0)), Zeta(1, 0), 3),
    ("wsp4", _central_of("u", zeta=Zeta(2, 1)), Zeta(1, 0), 2),
    ("ws2", _central_of("u", zeta=Zeta(1, 0)), Zeta(2, 1), 3),
    ("ws3", _central_of("u", zeta=Zeta(1, 0)), Zeta(3, 1), 2),
    ("ws2", _central_of("1", "u", zeta=Zeta(2, 1)), Zeta(1, 0), 3),
    ("ws2", lambda ws: ws.eps_functional() + ws.eps_zeta(Zeta(2, 1)), Zeta(1, 0), 3),
], ids=["sl2-zeta=-1", "sl3-zeta=1", "sp4-zeta=-1", "sl2-gauge=-1", "sl3-gauge=w",
        "sl2-c1+c2", "sl2-eps+eps(-1)"])
def test_central_translates_match_the_product_construction(
        wsname, central, gauge, degree, request, monkeypatch):
    # translates decided in state coordinates pick the same words, with the
    # same rows, as c(ab) - eps(a) c(b) read from c's values at twice the
    # degree
    ws = request.getfixturevalue(wsname)
    monkeypatch.setattr(dual, "CHECK_DEGREE", degree)
    c = central(ws)
    words, rows = _translates_by_products(ws, c, gauge)
    gens = fodc.quantum_lie_from_central(ws, c, gauge)
    # a translate with c(b) != 0 is labelled chi[b]+eps, or chi[b]+eps[..]
    # in a gauge
    labels = [f.label.split("+eps")[0] for f in gens]
    assert labels == [f"chi[{coordalg.word_str(b)}]" for b in words]
    assert dual.word_values(gens, degree) == rows


def test_central_counit_generates_nothing(ws2):
    gens = fodc.quantum_lie_from_central(ws2, ws2.eps_functional())
    assert gens == []


def test_sum_of_central_elements_generates_sum(ws2):
    z = Zeta(2, 1)
    c1 = fodc.central_element(ws2, ws2.corep("1"), z)
    c2 = fodc.central_element(ws2, ws2.corep("u"), z)
    gens = fodc.quantum_lie_from_central(ws2, c1 + c2)
    assert linalg.rank(dual.word_values(gens, 3)) == 5


# -- direct sums -----------------------------------------------------------------

def test_direct_sum_certificate(ws2):
    z = Zeta(2, 1)
    cal_u = fodc.Calculus(ws2, ws2.corep("u"), z)
    cal_1 = fodc.Calculus(ws2, ws2.corep("1"), z)
    cert = fodc.direct_sum_calculi([cal_1, cal_u])
    assert cert.dims == [1, 4] and cert.total == 5 and cert.direct


def test_direct_sum_duplicate_fails(ws2):
    z = Zeta(2, 1)
    cal_u = fodc.Calculus(ws2, ws2.corep("u"), z)
    with pytest.raises(fodc.NotDirectError):
        fodc.direct_sum_calculi([cal_u, cal_u])


def test_direct_sum_mixed_zeta(ws2):
    cal_a = fodc.Calculus(ws2, ws2.corep("u"), Zeta(1, 0))
    cal_b = fodc.Calculus(ws2, ws2.corep("u"), Zeta(2, 1))
    cert = fodc.direct_sum_calculi([cal_a, cal_b])
    assert cert.total == 8


def test_dsum_corep_quantum_lie(ws2):
    du = ws2.corep("dsum(1,u)")
    assert fodc.quantum_lie(ws2, du, Zeta(2, 1)).certified_dim == 5
    assert fodc.quantum_lie(ws2, du, Zeta(1, 0)).certified_dim == 4


# -- tensor identity --------------------------------------------------------------

def test_tensor_identity_with_unit(ws2):
    ok, _ = fodc.tensor_identity_check(ws2, ws2.corep("u"), ws2.corep("1"), 3)
    assert ok


def test_tensor_identity_uu(ws2):
    ok, deg = fodc.tensor_identity_check(ws2, ws2.corep("u"), ws2.corep("u"), 3)
    assert ok and deg == 3


def test_tensor_identity_u_uc(ws2):
    ok, _ = fodc.tensor_identity_check(ws2, ws2.corep("u"), ws2.corep("uc"), 3)
    assert ok


@pytest.mark.parametrize("call", [
    lambda ws, d: fodc.tensor_identity_check(ws, ws.corep("u"), ws.corep("u"), d),
    lambda ws, d: fodc.direct_sum_calculi(
        [fodc.Calculus(ws, ws.corep(v), Zeta(2, 1)) for v in ("1", "u")], d),
    lambda ws, d: ws.separated_equal(g(1, 1), CoordElem.unit(), d),
    lambda ws, d: ws.separating_reps(d),
    lambda ws, d: ws.functional_equal(ws.lplus_entry(1, 1), ws.lminus_entry(1, 1), d),
    lambda ws, d: ws.coideal_check([ws.lplus_entry(1, 2)], d),
], ids=["tensor_identity_check", "direct_sum_calculi", "separated_equal", "separating_reps",
        "functional_equal", "coideal_check"])
@pytest.mark.parametrize("value", [0, -1])
def test_degree_or_length_below_one_is_rejected(ws2, call, value):
    # None selects the default; a caller's 0 must not be read as "unset",
    # nor certify an identity on no words at all
    with pytest.raises(ValueError, match="at least 1"):
        call(ws2, value)


def test_functional_equal_without_a_degree_is_rejected(ws2):
    # functional_equal has no default degree, so None is a ValueError that
    # names the parameter, not a comparison of None with 1
    f = ws2.lplus_entry(1, 1)
    with pytest.raises(ValueError, match="degree must be given"):
        ws2.functional_equal(f, f, None)


# -- classification ----------------------------------------------------------------

def test_classify_single_component(ws2):
    lie = fodc.quantum_lie(ws2, ws2.corep("u"), Zeta(2, 1))
    rep = fodc.classify(ws2, lie.rows(3), "X_-1(u)", basis=lie.basis)
    assert rep.total_dim == 4 and rep.residual_rank == 0
    assert len(rep.components) == 1
    c = rep.components[0]
    assert str(c.zeta) == "-1" and str(c.frame) == "[1]" and c.dim == 4
    assert rep.coideal_ok


def test_classify_two_components(ws2):
    lie = fodc.quantum_lie(ws2, ws2.corep("dsum(1,u)"), Zeta(2, 1))
    rep = fodc.classify(ws2, lie.rows(3), "X_-1(1+u)", basis=lie.basis)
    assert [c.dim for c in rep.components] == [4, 1]
    assert rep.total_dim == 5 and rep.residual_rank == 0


def test_classify_zero_space(ws2):
    rep = fodc.classify(ws2, [], "zero")
    assert rep.components == [] and rep.total_dim == 0


def test_classify_reports_incomplete_library(ws2):
    # the symmetric square needs frame [2]; restricting the library to
    # frame_bound 1 must leave residual rank, reported rather than fatal
    sym = ws2.corep("proj:sym(tensor(u,u))")
    lie = fodc.quantum_lie(ws2, sym, Zeta(2, 1))
    rep = fodc.classify(ws2, lie.rows(3), "X_-1(sym2)", frame_bound=1)
    assert rep.residual_rank == 9
    full = fodc.classify(ws2, lie.rows(3), "X_-1(sym2)", frame_bound=2)
    assert full.residual_rank == 0
    assert [str(c.frame) for c in full.components] == ["[2]"]


def test_classify_json_deterministic(ws2):
    lie = fodc.quantum_lie(ws2, ws2.corep("u"), Zeta(2, 1))
    a = fodc.classify(ws2, lie.rows(3), "X").to_json()
    b = fodc.classify(ws2, lie.rows(3), "X").to_json()
    assert a == b


def _case(series, n, corep, zeta, dim, id=None):
    return pytest.param(series, n, corep, zeta, dim, id=id or f"{series}{n}-{corep}-{zeta}")


@pytest.mark.parametrize("series, n, corep, zeta, dim", [
    _case("sl", 2, "tensor(u,u)", "1", 9, "sl2-uu-1"),
    _case("sl", 2, "tensor(u,u)", "-1", 10, "sl2-uu--1"),
    _case("sl", 2, "dsum(1,u)", "1", 4, "sl2-1+u-1"),
    _case("sl", 2, "dsum(1,u)", "-1", 5, "sl2-1+u--1"),
    _case("sl", 2, "dsum(u,u)", "1", 4, "sl2-u+u-1"),
    _case("sl", 3, "minor:2", "1", 9, "sl3-minor2-1"),
    _case("sp", 2, "u", "1", 16, "sp4-u-1"),
    # the builds and reports the benchmark pins, one twist of each
    _case("sp", 3, "u", "1", 36),
    _case("sl", 3, "tensor(u,u)", "1", 45),
    _case("sl", 5, "u", "1", 25),
    _case("sl", 3, "proj:sym(tensor(u,u))", "1", 36),
    _case("sl", 4, "minor:2", "1", 36),
    _case("sl", 4, "u", "w", 16),
    _case("sl", 2, "u", "1", 4),
    _case("sl", 2, "u", "-1", 4),
    _case("sl", 3, "u", "1", 9),
    _case("sl", 3, "u", "w", 9),
    _case("sp", 1, "u", "-1", 4),
    # the builds CI runs
    _case("sp", 2, "proj:sym(tensor(u,u))", "1", 100),
    _case("sl", 5, "u", "w2", 25),
    _case("sl", 6, "u", "w", 36),
    _case("sl", 7, "u", "w", 49),
    _case("sl", 3, "tensor(u,u)", "w", 45),
    _case("sp", 2, "tensor(u,u)", "1", 125),
    _case("sl", 4, "tensor(u,u)", "1", 136),
    _case("sl", 4, "uc", "1", 16),
    _case("sl", 5, "minor:2", "1", 100),
    _case("sl", 5, "minor:3", "1", 100),
    _case("sl", 4, "proj:sym(tensor(u,u))", "1", 100),
    _case("sl", 3, "dsum(tensor(1,uc),dsum(minor:2,proj:sym(tensor(u,u))))", "1", 45),
    # every head of the grammar, and tensors with a factor u, uc or 1
    _case("sl", 2, "proj:anti(tensor(u,u))", "1", 0),
    _case("sl", 2, "proj:anti(tensor(u,u))", "-1", 1),
    _case("sl", 3, "proj:anti(tensor(u,u))", "1", 9),
    _case("sl", 2, "uc", "-1", 4),
    _case("sp", 1, "tensor(u,u)", "-1", 10),
    _case("sl", 2, "tensor(tensor(u,u),1)", "-1", 10),
    _case("sl", 2, "tensor(u,tensor(u,u))", "1", 20),
    _case("sl", 2, "tensor(uc,dsum(1,u))", "-1", 14),
    _case("sl", 3, "tensor(u,uc)", "1", 64),
])
def test_dimension_matches_component_oracle(series, n, corep, zeta, dim):
    # dim X_zeta(v) = sum of (dim V_lambda)^2 over the distinct irreducible
    # components of v, folded from the descriptor (oracles.components); the
    # trivial component drops out at zeta = 1
    config = getattr(FieldConfig, series)(n)
    zeta = parse_zeta(config, zeta)
    ws = Workspace(config)
    lie = fodc.quantum_lie(ws, ws.corep(corep), zeta)
    assert lie.certified_dim == oracles.component_dim(config, corep, zeta) == dim


# descriptors the component oracle does not cover: tensors of which neither
# factor has only trivial and box components
@pytest.mark.parametrize("series, n, corep", [
    ("sl", 3, "tensor(minor:2,minor:2)"),
    ("sl", 3, "tensor(uc,uc)"),
    ("sl", 4, "tensor(minor:2,proj:sym(tensor(u,u)))"),
    ("sl", 3, "dsum(u,tensor(uc,uc))"),
])
def test_component_oracle_names_what_it_does_not_cover(series, n, corep):
    config = getattr(FieldConfig, series)(n)
    assert oracles.component_dim(config, corep, Zeta(1, 0)) is None


def test_lie_reps_are_keyed_on_the_corep_not_its_label():
    # a corep labelled "u" with the entries of tensor(u,u): its Lie algebra
    # must not reuse the representations built for the registered u
    ws = Workspace(FieldConfig.sl(2))
    assert fodc.quantum_lie(ws, ws.corep("u"), Zeta(1, 0)).certified_dim == 4
    disguised = coordalg.Corep(ws.corep("tensor(u,u)").entries, "u")
    assert fodc.quantum_lie(ws, disguised, Zeta(1, 0)).certified_dim == 9


def test_sp4_fundamental_dimension():
    # the C-series pipeline beyond the smallest rank: dim X_-1(u) = 16
    ws = Workspace(FieldConfig.sp(2))
    lie = fodc.quantum_lie(ws, ws.corep("u"), Zeta(2, 1))
    assert lie.certified_dim == 16
    assert lie.rank_with_eps == 17
