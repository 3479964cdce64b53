"""The L-functional tables of a corepresentation v read off the N x N
representations L+, L- and S(L-) on v's entries (Workspace.l_corep,
Workspace.antipode_l_corep), against the r-form through convolution powers
of L+ and L- (tests/oracles.py)."""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qfodc import cli, dual
from qfodc.coordalg import CoordElem
from qfodc.dual import Workspace, antipode_rep, read_on_corep
from qfodc.scalar import FieldConfig, Scalar
from oracles import l_corep_by_pairing, q_form_by_pairing

CONFIGS = {
    "sl2": FieldConfig.sl(2),
    "sl3": FieldConfig.sl(3),
    "sl4": FieldConfig.sl(4),
    "sp2": FieldConfig.sp(2),
}

COMMON = ["u", "uc", "tensor(u,u)", "proj:sym(tensor(u,u))", "proj:anti(tensor(u,u))",
          "tensor(u,tensor(u,u))", "dsum(1,u)"]

# (configuration, descriptor): every descriptor on SL_q(2..4) and Sp_q(4),
# but proj:anti on Sp_q(4), whose R-matrix has no spectral projector of
# rank 6, and the minors that each admits
CASES = [
    (name, desc) for name in CONFIGS for desc in COMMON
    if (name, desc) != ("sp2", "proj:anti(tensor(u,u))")
] + [("sl3", "minor:2"), ("sl4", "minor:2"), ("sl4", "minor:3")]


@functools.lru_cache(maxsize=None)
def _workspace(name):
    return Workspace(CONFIGS[name])


@pytest.mark.parametrize("name, desc", CASES)
def test_tables_equal_the_conv_power_pairing(name, desc):
    ws = _workspace(name)
    v = ws.corep(desc)
    lplus = l_corep_by_pairing(ws, ws.lplus, v)
    lminus = l_corep_by_pairing(ws, ws.lminus, v)
    assert ws.l_corep(v).gens == lplus.gens
    # the mirror of the L+[v] read: l-[v]^i_j(u^a_b) = S(L+)(v^i_j)[b][a]
    assert read_on_corep(ws._antipode(ws.lplus), v, True, "L-").gens == lminus.gens
    assert ws.antipode_l_corep(ws.lminus, v).gens == antipode_rep(lminus, ws.config).gens
    assert ws.antipode_l_corep(ws.lplus, v).gens == antipode_rep(lplus, ws.config).gens


def _flip(rep):
    """The generator u^i_j maps to [rep(u^a_c)[i][j]] at [c][a]."""
    gens = {}
    for (a, c), m in rep.gens.items():
        for i, row in m.items():
            for j, val in row.items():
                gens.setdefault((i, j), {}).setdefault(c, {})[a] = val
    return gens


@pytest.mark.parametrize(
    "config", [FieldConfig.sl(n) for n in range(2, 8)] + [FieldConfig.sp(n) for n in range(1, 5)],
    ids=str,
)
def test_flip_of_l_is_the_antipode_of_the_other_l(config):
    ws = Workspace(config)
    assert _flip(ws.lplus) == antipode_rep(ws.lminus, config).gens
    assert _flip(ws.lminus) == antipode_rep(ws.lplus, config).gens


def _words(N, max_size):
    gen = st.tuples(st.integers(1, N), st.integers(1, N))
    return st.lists(gen, max_size=max_size).map(tuple)


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(["sl2", "sl3", "sp2"]), data=st.data())
def test_q_form_equals_the_pairing_body(name, data):
    ws = _workspace(name)
    a = CoordElem.from_word(data.draw(_words(ws.N, 3), "a"))
    b = CoordElem.from_word(data.draw(_words(ws.N, 3), "b"))
    assert ws.q_form(a, b) == q_form_by_pairing(ws, a, b)


def test_a_corrupted_antipode_of_lminus_changes_l_corep():
    ws = Workspace(FieldConfig.sl(2))
    srep = ws._antipode(ws.lminus)
    gen, m = next(iter(sorted(srep.gens.items())))
    r, row = next(iter(m.items()))
    c, val = next(iter(row.items()))
    srep.gens[gen] = {**m, r: {**row, c: val * Scalar.from_int(2)}}
    v = ws.corep("u")
    assert ws.l_corep(v).gens != l_corep_by_pairing(ws, ws.lplus, v).gens


def test_mrep_inverts_nothing_per_corep():
    ws = Workspace(FieldConfig.sl(3))
    ws._antipode(ws.lminus)
    with mock.patch.object(dual, "antipode_rep", side_effect=AssertionError("inverted")):
        for desc in ("u", "uc", "minor:2", "tensor(u,u)", "proj:sym(tensor(u,u))"):
            ws.mrep(ws.corep(desc))


@pytest.mark.parametrize("argv", [
    "build --series sl --n 3 --corep minor:2",
    "verify --series sl --n 2 --claim factorizability --degree 2",
    "verify --series sl --n 3 --claim centrality",
    "verify --series sl --n 2 --claim minor-tau",
])
def test_no_cli_path_builds_a_convolution_power(argv, capsys):
    with mock.patch.object(dual, "conv_power", side_effect=AssertionError("conv_power")):
        assert cli.main(argv.split()) == 0
