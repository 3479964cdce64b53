"""Acceptance suite: one criterion per test, one PASS/FAIL line per
criterion (run with `pytest -s tests/test_acceptance.py` to see the lines).

Every expected value is pinned here at its stated tolerance; all ranks and
identities are exact, so the tolerances are zero.
"""

import random

import pytest

from qfodc import coordalg, dual, fodc, linalg, rmat
from qfodc.coordalg import CoordElem, YoungWeight
from qfodc.cyclotomic import Zeta, all_admissible
from qfodc.dual import Functional, Workspace, all_words, antipode_rep, conv
from qfodc.scalar import FieldConfig, ONE, Scalar, ZERO

g = CoordElem.generator

_WS = {}


def ws_for(config):
    key = str(config)
    if key not in _WS:
        _WS[key] = Workspace(config)
    return _WS[key]


def report(criterion, ok, detail):
    print(f"CRITERION {criterion:>2}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


# -- criterion 1: R-matrix validity -------------------------------------------

def test_criterion_01_r_matrix_validity():
    # The degree is the number of irreducible summands of V (x) V: two for
    # sl_N and for sp_2 = sl_2, three for sp_2n with n >= 2.
    cases = [
        (FieldConfig.sl(2), 2),
        (FieldConfig.sl(3), 2),
        (FieldConfig.sl(4), 2),
        (FieldConfig.sp(1), 2),
        (FieldConfig.sp(2), 3),
    ]
    details = []
    ok = True
    for config, want_deg in cases:
        r = rmat.build_r(config)
        ybe = rmat.check_yang_baxter(r)
        deg = len(rmat.check_minimal_polynomial(r)) - 1
        good = ybe and deg == want_deg
        ok = ok and good
        details.append(f"{config}: YBE={ybe} minpoly_deg={deg} (want {want_deg})")
    # Second route to the Sp_q(2) degree: R_Sp(2) = p^{-1} R_SL(2) entrywise
    # (q = p in the C series, q = p^2 for SL_q(2)), and a scalar multiple has
    # the minimal polynomial degree of SL_q(2).
    sp2 = rmat.build_r(FieldConfig.sp(1)).entries
    sl2 = rmat.build_r(FieldConfig.sl(2)).entries
    p_inv = Scalar.p_power(-1)
    scaled = (sp2.keys() == sl2.keys()
              and all(sp2[k] == p_inv * sl2[k] for k in sl2))
    ok = ok and scaled
    details.append(f"R_Sp(2) = p^-1 R_SL(2): {scaled}")
    assert report(1, ok, "; ".join(details))


# -- criterion 2: Hopf-duality engine ------------------------------------------

def _multiplicative_on_all_words(ws, rep, degree):
    for w in all_words(ws.N, degree):
        for cut in range(1, len(w)):
            lhs = rep.word_matrix(w)
            rhs = linalg.mat_mul(rep.word_matrix(w[:cut]), rep.word_matrix(w[cut:]))
            if not linalg.mat_eq(lhs, rhs):
                return False
    return True


def _convolution_inverse_law(ws, degree):
    N = ws.N
    srep = antipode_rep(ws.lminus, ws.config)
    pair = conv(srep, ws.lminus)
    eps_tab = dual.eps_word_values(degree, N)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            f = Functional([(pair, (k, k), (i, j), ONE) for k in range(1, N + 1)])
            vals = f.word_values(degree)
            want = eps_tab if i == j else {}
            for w in set(vals) | set(want):
                if not (vals.get(w, ZERO) - want.get(w, ZERO)).is_zero():
                    return False
    return True


def test_criterion_02_hopf_duality_engine():
    ok = True
    details = []
    for N in (2, 3):
        ws = ws_for(FieldConfig.sl(N))
        mult = _multiplicative_on_all_words(ws, ws.lplus, 3) and \
            _multiplicative_on_all_words(ws, ws.lminus, 3)
        inv = _convolution_inverse_law(ws, 3)
        ok = ok and mult and inv
        details.append(f"SL_q({N}): multiplicative={mult} conv_inverse={inv}")
    assert report(2, ok, "; ".join(details))


# -- criterion 3: minor-tau identity -------------------------------------------

def test_criterion_03_minor_tau():
    cases = [
        (FieldConfig.sl(2), (1,)),
        (FieldConfig.sl(3), (1, 2)),
        (FieldConfig.sp(1), (1,)),
    ]
    ok = True
    details = []
    for config, ks in cases:
        ws = ws_for(config)
        for k in ks:
            v = ws.corep("u" if k == 1 else f"minor:{k}")
            l_D = ws.l_entry(v, 0, 0)
            frame = YoungWeight(tuple(0 if t != k - 1 else 1 for t in range(k)))
            tau = ws.tau_functional(frame)
            eq, deg = ws.functional_equal(l_D, tau, degree=4)
            ok = ok and eq
            details.append(f"{config} k={k}: equal={eq}@deg{deg}")
    assert report(3, ok, "; ".join(details))


# -- criterion 4: dimension counts ----------------------------------------------

def lie_for(config, zeta):
    ws = ws_for(config)
    key = ("lie", str(config), str(zeta))
    if key not in _WS:
        _WS[key] = fodc.quantum_lie(ws, ws.corep("u"), zeta)
    return _WS[key]


def test_criterion_04_dimension_counts():
    ok = True
    details = []
    for j in (0, 1):
        lie = lie_for(FieldConfig.sl(2), Zeta(2, j))
        good = lie.certified_dim == 4 and lie.rank_with_eps == 5
        ok = ok and good
        details.append(
            f"SL_q(2) zeta={Zeta(2, j)}: dim={lie.certified_dim} "
            f"with_eps={lie.rank_with_eps}"
        )
    for j in (0, 1, 2):
        lie = lie_for(FieldConfig.sl(3), Zeta(3, j))
        good = lie.certified_dim == 9 and lie.rank_with_eps == 10
        ok = ok and good
        details.append(
            f"SL_q(3) zeta={Zeta(3, j)}: dim={lie.certified_dim} "
            f"with_eps={lie.rank_with_eps}"
        )
    assert report(4, ok, "; ".join(details))


# -- criterion 5: centrality and nonvanishing ------------------------------------

def test_criterion_05_centrality():
    ws = ws_for(FieldConfig.sl(2))
    z = Zeta(2, 1)
    c = fodc.central_element(ws, ws.corep("u"), z)
    central = fodc.is_central(ws, c, 3)
    pe = c - ws.eps_functional().scaled(c.value_at_unit())
    row = pe.word_values(3)
    nonzero = bool(row)
    lie = lie_for(FieldConfig.sl(2), z)
    in_span = linalg.in_row_space(linalg.echelon(lie.rows(3)), row)
    ok = central and nonzero and in_span
    assert report(
        5, ok, f"central={central} P_eps(c)!=0: {nonzero} in_span={in_span}"
    )


# -- criterion 6: central generation ---------------------------------------------

def test_criterion_06_central_generation():
    ws = ws_for(FieldConfig.sl(2))
    z = Zeta(2, 1)
    c = fodc.central_element(ws, ws.corep("u"), z)
    gens = fodc.quantum_lie_from_central(ws, c)
    rows_c = dual.word_values(gens, 3)
    lie = lie_for(FieldConfig.sl(2), z)
    rows_x = lie.rows(3)
    ra, rb = linalg.rank(rows_c), linalg.rank(rows_x)
    rab = linalg.rank(rows_c + rows_x)
    ok = ra == rb == rab == 4
    assert report(6, ok, f"rank central={ra} lie={rb} union={rab}")


# -- criterion 7: coideal / ad_R-invariance ---------------------------------------

def test_criterion_07_coideal():
    ok = True
    details = []
    for config, zetas in (
        (FieldConfig.sl(2), [Zeta(2, 0), Zeta(2, 1)]),
        (FieldConfig.sl(3), [Zeta(3, 0), Zeta(3, 1), Zeta(3, 2)]),
    ):
        for z in zetas:
            lie = lie_for(config, z)
            good, deg = lie.coideal_certificate(3)
            ok = ok and good
            details.append(f"{config} zeta={z}: {good}@deg{deg}")
    assert report(7, ok, "; ".join(details))


# -- criterion 8: tensor identity --------------------------------------------------

def test_criterion_08_tensor_identity():
    ws = ws_for(FieldConfig.sl(2))
    ok, deg = fodc.tensor_identity_check(ws, ws.corep("u"), ws.corep("u"), 3)
    assert report(8, ok, f"X^c(u(x)u) = X^c(u)X^c(u) at degree {deg}")


# -- criterion 9: direct sums ------------------------------------------------------

def test_criterion_09_direct_sums():
    ws = ws_for(FieldConfig.sl(2))
    du = ws.corep("dsum(1,u)")
    lie_m = fodc.quantum_lie(ws, du, Zeta(2, 1))
    lie_p = fodc.quantum_lie(ws, du, Zeta(1, 0))
    cal_u = fodc.Calculus(ws, ws.corep("u"), Zeta(2, 1))
    cal_1 = fodc.Calculus(ws, ws.corep("1"), Zeta(2, 1))
    cert = fodc.direct_sum_calculi([cal_1, cal_u])
    ok = (
        lie_m.certified_dim == 5
        and lie_p.certified_dim == 4
        and cert.dims == [1, 4]
        and cert.total == 5
    )
    assert report(
        9, ok,
        f"Gamma_-1(1+u) dims {cert.dims} total {cert.total}; "
        f"X_-1(1+u)={lie_m.certified_dim} X_1(1+u)={lie_p.certified_dim}",
    )


# -- criterion 10: factorizability ---------------------------------------------------

def test_criterion_10_factorizability():
    ws = ws_for(FieldConfig.sl(2))
    words = all_words(2, 2)
    gram = []
    for wi in words:
        a = CoordElem.from_word(wi)
        row = {}
        for wj in words:
            v = ws.q_form(a, CoordElem.from_word(wj))
            if not v.is_zero():
                row[wj] = v
        gram.append(row)
    got = linalg.rank(gram)
    oracle = coordalg.peter_weyl_rank(ws.config, 2)
    ok = got == 14 and oracle == 14
    assert report(10, ok, f"Gram rank {got}, Peter-Weyl oracle {oracle} (want 14)")


# -- criterion 11: Leibniz and the triviality boundary --------------------------------

def test_criterion_11_leibniz():
    rng = random.Random(2024)
    ok = True
    details = []
    for config, zetas in (
        (FieldConfig.sl(2), [Zeta(2, 0), Zeta(2, 1)]),
        (FieldConfig.sl(3), [Zeta(3, 0), Zeta(3, 1), Zeta(3, 2)]),
    ):
        ws = ws_for(config)
        words = all_words(ws.N, 2)
        for z in zetas:
            cal = fodc.Calculus(ws, ws.corep("u"), z)
            good = True
            for _ in range(20):
                a = CoordElem.from_word(rng.choice(words))
                b = CoordElem.from_word(rng.choice(words))
                defect = cal.leibniz_defect(a, b)
                for coeff in defect.values():
                    eq, _ = ws.separated_equal(coeff, CoordElem(), length=2)
                    if not eq:
                        good = False
            ok = ok and good
            details.append(f"{config} zeta={z}: leibniz={good}")
    # triviality boundary: the (1,1) calculus differentiates to zero
    ws2 = ws_for(FieldConfig.sl(2))
    cal0 = fodc.Calculus(ws2, ws2.corep("1"), Zeta(1, 0))
    trivial = all(
        c.is_zero()
        for w in all_words(2, 3)
        for c in cal0.differential(CoordElem.from_word(w)).values()
    )
    ok = ok and trivial
    details.append(f"(1,1) calculus d==0 at deg<=3: {trivial}")
    assert report(11, ok, "; ".join(details))
