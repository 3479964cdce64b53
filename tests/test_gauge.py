"""The twist consumers work in the gauge of the run's twist zeta: convolving
with eps_{zeta^-1} scales the value on a word w by zeta^-|w|.  Each gauged
consumer is compared here with its ungauged reference in oracles, which
carries zeta through every row, walk and elimination."""

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qfodc import dual, fodc, linalg
from qfodc.cyclotomic import TRIVIAL, Zeta, all_admissible
from qfodc.dual import Workspace
from qfodc.scalar import FieldConfig, ONE, Scalar
import oracles

CONFIGS = {
    "sl2": (FieldConfig.sl(2), ("u", "dsum(1,u)")),
    "sl3": (FieldConfig.sl(3), ("u", "minor:2", "dsum(1,u)")),
    "sl4": (FieldConfig.sl(4), ("u", "minor:2", "dsum(1,u)")),
    "sp2": (FieldConfig.sp(1), ("u", "dsum(1,u)")),
}


@lru_cache(maxsize=None)
def workspace(name):
    return Workspace(CONFIGS[name][0])


def degree_for(name):
    # SL_q(4) at degree 2 keeps the ungauged references to a second or so
    return 2 if name == "sl4" else dual.CHECK_DEGREE


CASES = [
    pytest.param(name, j, corep, id=f"{name}-{zeta}-{corep}")
    for name, (config, coreps) in CONFIGS.items()
    for j, zeta in enumerate(all_admissible(config))
    for corep in coreps
]


def zeta_of(name, j):
    return all_admissible(CONFIGS[name][0])[j]


def regauged(rows, zeta):
    """Each {word: value} row with its values multiplied by zeta^-|w|."""
    return [{w: zeta.power_value(-len(w)) * x for w, x in row.items()} for row in rows]


@pytest.mark.parametrize("name, j, corep", CASES)
def test_lie_rows_and_basis_are_the_true_ones_regauged(name, j, corep):
    ws, zeta, d = workspace(name), zeta_of(name, j), degree_for(name)
    v = ws.corep(corep)
    want = regauged(oracles.true_lie_rows(ws, v, zeta, d), zeta)
    lie = fodc.QuantumLieAlgebra(ws, v, zeta, zeta)
    assert lie.rows(d) == want
    assert dual.word_values(lie.basis, d) == want
    assert [x.label for x in lie.basis] == [x.label for x in oracles.true_lie_basis(ws, v, zeta)]


@pytest.mark.parametrize("name, j, corep", CASES)
def test_gauged_consumers_match_the_ungauged_references(name, j, corep):
    ws, zeta, d = workspace(name), zeta_of(name, j), degree_for(name)
    v = ws.corep(corep)
    lie = fodc.QuantumLieAlgebra(ws, v, zeta, zeta)
    true_basis = oracles.true_lie_basis(ws, v, zeta)
    assert lie.coideal_certificate(d) == (oracles.coideal_check_ungauged(ws, true_basis, d), d)
    # the true basis regauged term by term keeps its eps part housed apart
    # from eps_{zeta^-1}, so the certificate must find that character in
    # the span
    regauged_basis = [fodc.twisted(ws, zeta.inverse(), x) for x in true_basis]
    assert ws.coideal_check(regauged_basis, d, zeta) == (True, d)
    assert lie.certify_dim() == fodc.quantum_lie(ws, v, zeta).certify_dim()
    got = fodc.verify_centrality(ws, zeta, corep, d)
    assert got == oracles.verify_centrality_ungauged(ws, zeta, corep, d)
    assert got[0]
    got = fodc.classify(ws, lie.rows(d), "X", d, basis=lie.basis, gauge=zeta)
    want = oracles.classify_ungauged(ws, oracles.true_lie_rows(ws, v, zeta, d), "X", d,
                                     basis=true_basis)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("name, j", [
    pytest.param(name, j, id=f"{name}-{zeta}")
    for name in ("sl2", "sl3") for j, zeta in enumerate(all_admissible(CONFIGS[name][0]))
])
def test_central_span_classifies_as_the_ungauged_one(name, j):
    ws, zeta, d = workspace(name), zeta_of(name, j), dual.CHECK_DEGREE
    v = ws.corep("u")
    gens, rows = fodc.central_span(ws, v, zeta, d)
    true_gens, true_rows = oracles.central_span_ungauged(ws, v, zeta, d)
    assert [f.label.split("+")[0] for f in gens] == [f.label.split("+")[0] for f in true_gens]
    got = fodc.classify(ws, rows, "c", d, basis=gens, gauge=zeta)
    want = oracles.classify_ungauged(ws, true_rows, "c", d, basis=true_gens)
    assert got.to_json() == want.to_json()
    assert got.residual_rank == 0 and got.coideal_ok
    assert fodc.verify_central_generates(ws, zeta)[0]


def _subsets(name, j):
    """Proper subsets of X_zeta(u)'s basis with one or two elements, by
    index."""
    n = CONFIGS[name][0].N ** 2
    return [s for k in (1, 2) for s in combinations(range(n), k)]


@pytest.mark.parametrize("name, j", [
    pytest.param(name, j, id=f"{name}-{zeta}")
    for name in ("sl2", "sl3") for j, zeta in enumerate(all_admissible(CONFIGS[name][0]))
])
def test_subsets_that_are_no_coideal_fail_in_both_gauges(name, j):
    # {X_12} alone, and every other subset of one or two basis elements,
    # gets one verdict from the gauged check and the ungauged reference
    ws, zeta, d = workspace(name), zeta_of(name, j), 2
    v = ws.corep("u")
    gauged = fodc.QuantumLieAlgebra(ws, v, zeta, zeta).basis
    true = oracles.true_lie_basis(ws, v, zeta)
    regauged_basis = [fodc.twisted(ws, zeta.inverse(), x) for x in true]
    failures = 0
    for s in _subsets(name, j):
        want = oracles.coideal_check_ungauged(ws, [true[k] for k in s], d)
        assert ws.coideal_check([gauged[k] for k in s], d, zeta) == (want, d), s
        assert ws.coideal_check([regauged_basis[k] for k in s], d, zeta) == (want, d), s
        failures += not want
    assert failures >= len(_subsets(name, j)) // 2
    assert not ws.coideal_check([gauged[1]], d, zeta)[0]


@pytest.mark.parametrize("name, j", [("sl2", 1), ("sl3", 1), ("sl3", 2), ("sl4", 1)])
def test_non_central_functional_fails_in_both_gauges(name, j):
    ws, zeta = workspace(name), zeta_of(name, j)
    v = ws.corep("u")
    true = oracles.true_central_element(ws, v, zeta) + ws.lplus_entry(1, 2)
    gauged = fodc.twisted(ws, zeta.inverse(), true)
    assert not fodc.is_central(ws, true, 2)
    assert not fodc.is_central(ws, gauged, 2)
    with pytest.raises(fodc.NotCentralError):
        fodc.quantum_lie_from_central(ws, gauged, zeta)
    # the central c_1(v) plus the gauged l+[1,2] is no central element either
    c1 = fodc.central_element(ws, v, TRIVIAL)
    assert fodc.is_central(ws, c1, 2)
    assert not fodc.is_central(ws, c1 + fodc.twisted(ws, zeta.inverse(), ws.lplus_entry(1, 2)), 2)


@pytest.mark.parametrize("name, j", [("sl2", 1), ("sl3", 1), ("sl3", 0), ("sl4", 2)])
def test_candidates_outside_the_span_leave_the_same_residual(name, j):
    # X_zeta(u) with one row dropped holds no whole candidate, and the
    # symmetric square with the frame bound 1 has no candidate at all
    ws, zeta = workspace(name), zeta_of(name, j)
    d = degree_for(name)
    for desc, drop, bound in (("u", 1, 2), ("proj:sym(tensor(u,u))", 0, 1)):
        if desc.startswith("proj") and name != "sl2":
            continue
        v = ws.corep(desc)
        rows = fodc.QuantumLieAlgebra(ws, v, zeta, zeta).rows(d)[drop:]
        true_rows = oracles.true_lie_rows(ws, v, zeta, d)[drop:]
        got = fodc.classify(ws, rows, "X", d, frame_bound=bound, gauge=zeta)
        want = oracles.classify_ungauged(ws, true_rows, "X", d, frame_bound=bound)
        assert got.to_json() == want.to_json()
        assert got.residual_rank > 0
    # X_zeta'(u) at a nontrivial zeta' with one row of X_1(u) added: the
    # component fills part of the rank, and what is left holds no candidate
    zc = all_admissible(ws.config)[1] if zeta.is_one() else zeta
    v = ws.corep("u")
    rows = (fodc.QuantumLieAlgebra(ws, v, zc, zeta).rows(d)
            + fodc.QuantumLieAlgebra(ws, v, TRIVIAL, zeta).rows(d)[1:2])
    true_rows = oracles.true_lie_rows(ws, v, zc, d) + oracles.true_lie_rows(ws, v, TRIVIAL, d)[1:2]
    got = fodc.classify(ws, rows, "X", d, gauge=zeta)
    want = oracles.classify_ungauged(ws, true_rows, "X", d)
    assert got.to_json() == want.to_json()
    assert [c.dim for c in got.components] == [v.dim * v.dim]
    assert got.residual_rank > 0


def _combination(ws, coeffs):
    """sum of coeffs[k] times the k-th l+/l- generator entry."""
    idx = range(1, ws.N + 1)
    gens = [entry(i, j) for entry in (ws.lplus_entry, ws.lminus_entry) for i in idx for j in idx]
    f = dual.Functional([])
    for c, g in zip(coeffs, gens):
        if c:
            f = f + g.scaled(Scalar.from_int(c))
    return f


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["sl2", "sl3", "sl4"]), st.integers(0, 3),
       st.lists(st.integers(-2, 2), min_size=8, max_size=32))
def test_gauged_word_values_are_the_true_ones_times_zeta_power(name, j, coeffs):
    ws = workspace(name)
    zetas = all_admissible(ws.config)
    zeta = zetas[j % len(zetas)]
    f = _combination(ws, coeffs) + ws.eps_zeta(zeta).scaled(Scalar.from_int(coeffs[0] + 3))
    gauged = fodc.twisted(ws, zeta.inverse(), f).word_values(2)
    assert gauged == regauged([f.word_values(2)], zeta)[0]


def test_zeta_quotient_and_inverse():
    for n in (2, 3, 4, 6):
        zetas = all_admissible(FieldConfig.sl(n))
        for a in zetas:
            assert (a / a).is_one() and (a / TRIVIAL) == a
            assert a.inverse() == TRIVIAL / a
            for b in zetas:
                q = a / b
                for t in range(-2, 4):
                    got = q.power_value(t) * b.power_value(t)
                    assert (got - a.power_value(t)).is_zero()
    assert Zeta(4, 1).power_value(4) is Zeta(3, 1).power_value(-3) is ONE


def test_eps_zeta_is_cached_per_twist():
    ws = workspace("sl3")
    w = all_admissible(ws.config)[1]
    assert ws.eps_zeta(w).terms[0][0] is ws.eps_zeta(w).terms[0][0]
    assert ws.eps_zeta(TRIVIAL).terms == ws.eps_functional().terms
    assert ws.eps_zeta(w).word_values(2) == dual.eps_word_values(2, ws.N, w)
    assert linalg.rank([ws.eps_zeta(z).word_values(2) for z in all_admissible(ws.config)]) == 3
