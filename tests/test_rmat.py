import pytest

from qfodc import linalg, rmat
from qfodc.scalar import FieldConfig, ONE, Scalar, ZERO
from oracles import check_braid_relation, check_inverse

ALL_CONFIGS = [
    FieldConfig.sl(2),
    FieldConfig.sl(3),
    FieldConfig.sl(4),
    FieldConfig.sp(1),
    FieldConfig.sp(2),
]


@pytest.fixture(scope="module")
def rdata():
    return {str(cfg): rmat.build_r(cfg) for cfg in ALL_CONFIGS}


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=str)
def test_yang_baxter(rdata, cfg):
    assert rmat.check_yang_baxter(rdata[str(cfg)])


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=str)
def test_inverse(rdata, cfg):
    assert check_inverse(rdata[str(cfg)])


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=str)
def test_braid_relation(rdata, cfg):
    assert check_braid_relation(rdata[str(cfg)])


def test_a_series_support(rdata):
    # A-series entries vanish unless {i,n} = {j,m} as multisets; the
    # triangular part sits at R^{in}_{ni} with i > n.
    r = rdata["SL_q(3)"]
    q = r.config.q
    lam = q - q.inverse()
    for (i, n, j, m), v in r.entries.items():
        assert sorted((i, n)) == sorted((j, m))
        if (i, n) == (j, m):
            assert v == (q if i == n else ONE)
        else:
            assert i > n and (j, m) == (n, i) and v == lam
    for i in range(1, 4):
        assert r.entries[(i, i, i, i)] == q


def test_minimal_polynomial_degrees(rdata):
    assert len(rmat.check_minimal_polynomial(rdata["SL_q(2)"])) - 1 == 2
    assert len(rmat.check_minimal_polynomial(rdata["SL_q(3)"])) - 1 == 2
    assert len(rmat.check_minimal_polynomial(rdata["SL_q(4)"])) - 1 == 2
    assert len(rmat.check_minimal_polynomial(rdata["Sp_q(4)"])) - 1 == 3


def test_sp2_minimal_polynomial_degenerates(rdata):
    # For sp_2 the tensor square of the vector corepresentation has only two
    # irreducible summands, so the braid operator has two eigenvalues and a
    # quadratic minimal polynomial; the would-be middle eigenvalue -q^{-1}
    # has multiplicity zero.  (The generic cubic still annihilates Rhat.)
    r = rdata["Sp_q(2)"]
    mp = rmat.check_minimal_polynomial(r)
    assert len(mp) - 1 == 2
    q = r.config.q
    eigs = rmat.braid_eigenvalues(r)
    assert eigs == [q, -(q ** -3)]
    cubic_roots = [q, -q.inverse(), -(q ** -3)]
    m = rmat.rhat(r)
    labels = r.pair_labels()
    acc = linalg.mat_identity(labels)
    for root in cubic_roots:
        acc = linalg.mat_mul(
            acc, linalg.mat_sub(m, linalg.mat_scale(linalg.mat_identity(labels), root))
        )
    assert acc == {}


def test_sl2_braid_eigenvalues(rdata):
    r = rdata["SL_q(2)"]
    q = r.config.q
    assert rmat.braid_eigenvalues(r) == [q, -q.inverse()]


def test_sp4_braid_eigenvalues(rdata):
    r = rdata["Sp_q(4)"]
    q = r.config.q
    assert rmat.braid_eigenvalues(r) == [q, -q.inverse(), -(q ** -5)]


@pytest.mark.parametrize("name", ["SL_q(2)", "SL_q(3)", "Sp_q(2)", "Sp_q(4)"])
def test_spectral_projectors(rdata, name):
    r = rdata[name]
    labels = r.pair_labels()
    projs = rmat.spectral_projectors(r)
    total = {}
    m = rmat.rhat(r)
    recomposed = {}
    for eig, pmat in projs:
        assert linalg.mat_eq(linalg.mat_mul(pmat, pmat), pmat)
        assert linalg.mat_eq(linalg.mat_mul(pmat, m), linalg.mat_mul(m, pmat))
        total = linalg.mat_add(total, pmat)
        recomposed = linalg.mat_add(recomposed, linalg.mat_scale(pmat, eig))
    assert linalg.mat_is_identity(total, labels)
    assert linalg.mat_eq(recomposed, m)
    for (e1, p1) in projs:
        for (e2, p2) in projs:
            if e1 != e2:
                assert linalg.mat_mul(p1, p2) == {}


def test_sl2_projector_ranks(rdata):
    projs = rmat.spectral_projectors(rdata["SL_q(2)"])
    ranks = [linalg.rank(list(p.values())) for _, p in projs]
    assert ranks == [3, 1]  # q-symmetrizer and q-antisymmetrizer


def test_projector_ranks_sum(rdata):
    for name in ("SL_q(3)", "Sp_q(4)"):
        r = rdata[name]
        projs = rmat.spectral_projectors(r)
        assert sum(linalg.rank(list(p.values())) for _, p in projs) == r.N ** 2


def test_corrupted_entry_breaks_ybe(rdata):
    r = rdata["SL_q(2)"]
    bad_entries = dict(r.entries)
    bad_entries[(1, 1, 1, 1)] = r.config.q + ONE
    bad = rmat.RData(r.config, bad_entries, r.inverse_entries)
    assert not rmat.check_yang_baxter(bad)


def test_unsupported_config():
    with pytest.raises(Exception):
        rmat.build_r("not a config")
