"""Workspace.functional_equal decides equality on the reachable span of
f - g; the word walk it replaced is kept here as the reference."""

import functools
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qfodc import cli, dual
from qfodc.coordalg import YoungWeight
from qfodc.dual import Functional, Workspace
from qfodc.scalar import FieldConfig, ONE, Scalar

from oracles import row_sub_scaled

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"

CONFIGS = {"sl2": FieldConfig.sl(2), "sl3": FieldConfig.sl(3), "sp4": FieldConfig.sp(2)}


def word_walk_equal(f, g, degree):
    """The reference: evaluate f - g on every word of degree <= degree and
    report the least length of a word where it is nonzero."""
    degree = dual.positive_or_default(degree, None, "degree")
    diff = (f - g).word_values(degree)
    if diff:
        return False, min(len(w) for w in diff)
    return True, degree


def outcome(equal, f, g, degree):
    """equal(f, g, degree), or the class of the ValueError it raises."""
    try:
        return equal(f, g, degree)
    except ValueError as exc:
        return type(exc)


@functools.lru_cache(maxsize=None)
def workspace(name):
    return Workspace(CONFIGS[name])


def weights(ws):
    rank = ws.config.rank
    return [YoungWeight(()), YoungWeight((2,)), YoungWeight((1, 1))] + [
        YoungWeight.fundamental(k) for k in range(1, rank + 1)
    ]


@functools.lru_cache(maxsize=None)
def atoms(name):
    """The functionals each side of a pair is drawn from: L+ and L- entries,
    l-entries of u and (on the A series) minor:2, and tau(-2 lambda)."""
    ws = workspace(name)
    idx = range(1, ws.N + 1)
    out = [ws.lplus_entry(i, j) for i in idx for j in idx]
    out += [ws.lminus_entry(i, j) for i in idx for j in idx]
    descs = ["u"] + (["minor:2"] if ws.config.series == "A" and ws.config.rank >= 2 else [])
    for desc in descs:
        v = ws.corep(desc)
        out += [ws.l_entry(v, i, j) for i in range(v.dim) for j in range(v.dim)]
    out += [ws.tau_functional(w) for w in weights(ws)]
    return out


def vanishing_combinations(fs, degree):
    """A basis of the combinations of fs that vanish on every word of degree
    <= degree, each as a Functional, by elimination on the word columns."""
    basis, out = [], []
    for k, row in enumerate(dual.word_values(fs, degree)):
        combo = {k: ONE}
        for w, brow, bcombo in basis:
            v = row.get(w)
            if v is not None:
                row = row_sub_scaled(row, v, brow)
                combo = row_sub_scaled(combo, v, bcombo)
        if row:
            w = min(row)
            inv = row[w].inverse()
            basis.append((w, {c: inv * x for c, x in row.items()},
                          {c: inv * x for c, x in combo.items()}))
        else:
            out.append(sum((fs[j].scaled(c) for j, c in combo.items()), Functional([])))
    return out


@functools.lru_cache(maxsize=None)
def vanishing_below(name, length):
    """Combinations of the atoms that vanish on every word shorter than
    length: their first nonzero value, if any, is at degree >= length."""
    return vanishing_combinations(atoms(name), length - 1)


COEFFS = st.integers(-3, 3).filter(bool).map(Scalar.from_int)


@st.composite
def sides(draw, name):
    pool = atoms(name)
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=3))
    total = Functional([])
    for k in picks:
        total = total + pool[k].scaled(draw(COEFFS))
    return total


@st.composite
def pairs(draw):
    """(workspace, f, g): independent sides; f and f plus a multiple of the
    minor-tau identity l(u)^1_1 - tau(-2 omega_1) = 0 (an equal pair with
    other terms); or f and f plus combinations of atoms that vanish on the
    words shorter than 2 or 3 (a first difference at degree >= 2, if any)."""
    name = draw(st.sampled_from(sorted(CONFIGS)))
    ws = workspace(name)
    f = draw(sides(name))
    kind = draw(st.sampled_from(("free", "identity", "deep")))
    if kind == "free":
        return ws, f, draw(sides(name))
    if kind == "identity":
        zero = ws.l_entry(ws.corep("u"), 0, 0) - ws.tau_functional(YoungWeight.fundamental(1))
        return ws, f, f + zero.scaled(draw(COEFFS))
    deep = vanishing_below(name, draw(st.sampled_from((2, 3))))
    g = f
    for h in draw(st.lists(st.sampled_from(deep), min_size=1, max_size=2)):
        g = g + h.scaled(draw(COEFFS))
    return ws, f, g


@settings(deadline=None, max_examples=120)
@given(pair=pairs(), degree=st.integers(0, 4))
def test_reachable_span_matches_the_word_walk(pair, degree):
    ws, f, g = pair
    assert outcome(ws.functional_equal, f, g, degree) == outcome(word_walk_equal, f, g, degree)


# on SL_q(2) and Sp_q(4) the atoms that vanish on the words of degree <= 2
# vanish up to degree 4 as well
@pytest.mark.parametrize("name, length", [("sl2", 2), ("sl3", 2), ("sp4", 2), ("sl3", 3)])
def test_a_first_difference_deep_in_the_words_is_found(name, length):
    ws = workspace(name)
    f = ws.tau_functional(YoungWeight.fundamental(1))
    firsts = set()
    for h in vanishing_below(name, length):
        want = word_walk_equal(f, f + h, 4)
        assert ws.functional_equal(f, f + h, 4) == want
        firsts.add(want)
    # the pairs reach a first difference at exactly this degree
    assert (False, length) in firsts
    assert all(eq or deg >= length for eq, deg in firsts)


def word_indicator(N, word):
    """The entry (0, |word|) of a path automaton: 1 on word, 0 on every
    other word."""
    gens = {}
    for t, gen in enumerate(word):
        gens.setdefault(gen, {})[t] = {t + 1: ONE}
    return Functional([(dual.MatRep(N, range(len(word) + 1), gens, str(word)), 0, len(word), ONE)])


def test_every_word_is_reached():
    # a functional that is nonzero on one word only differs from 0 there
    ws, zero = workspace("sl2"), Functional([])
    for word in dual.all_words(ws.N, 3):
        f = word_indicator(ws.N, word)
        assert ws.functional_equal(f, zero, 3) == word_walk_equal(f, zero, 3) == (False, len(word))


MINOR_TAU = [
    "verify --series sl --n 3 --claim minor-tau --degree 3",
    "verify --series sp --n 1 --claim minor-tau --degree 4",
    "verify --series sl --n 4 --claim minor-tau --degree 4",
]


@pytest.mark.parametrize("line", MINOR_TAU)
def test_minor_tau_walks_no_word(line, monkeypatch, capsys):
    def no_walk(*_):
        raise AssertionError("minor-tau walked the word tree")

    monkeypatch.setattr(dual, "iter_word_states", no_walk)
    status = cli.main(line.split())
    report = capsys.readouterr().out
    pin = json.loads(PINS.read_text())[line]
    assert (status, hashlib.sha256(report.encode()).hexdigest()) == (pin["status"], pin["sha256"])
