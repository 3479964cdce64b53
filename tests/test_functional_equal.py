"""Workspace.functional_equal decides equality on the backward reachable
span of f - g; the word walk it replaced is kept here as the reference."""

import functools
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qfodc import cli, dual, linalg
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
    """(workspace, f, g): independent sides; an L+ entry against an L- entry
    (the backward span is often the larger, see
    test_l_plus_against_l_minus); f and f plus a multiple of the minor-tau
    identity l(u)^1_1 - tau(-2 omega_1) = 0 (an equal pair with other
    terms); or f and f plus combinations of atoms that vanish on the words
    shorter than 2 or 3 (a first difference at degree >= 2, if any)."""
    name = draw(st.sampled_from(sorted(CONFIGS)))
    ws = workspace(name)
    f = draw(sides(name))
    kind = draw(st.sampled_from(("free", "plus-minus", "identity", "deep")))
    if kind == "free":
        return ws, f, draw(sides(name))
    if kind == "plus-minus":
        n = ws.N * ws.N
        plus, minus = draw(st.integers(0, n - 1)), draw(st.integers(n, 2 * n - 1))
        return ws, atoms(name)[plus].scaled(draw(COEFFS)), atoms(name)[minus].scaled(draw(COEFFS))
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


def span_dims(f, g):
    """Dimensions of the forward and backward reachable spans of f - g."""
    x0, (y,), gens = dual.automaton(f - g)
    mats = [gens[gen] for gen in sorted(gens)]
    dims = []
    for start, ms in ((x0, mats), (y, [linalg.mat_transpose(m) for m in mats])):
        span = dual.ReachableSpan(start, ms)
        while list(span.grow()):
            pass
        dims.append(len(span.basis))
    return dims


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_l_plus_against_l_minus(name):
    # every L+ entry against every L- entry, on pairs where the backward
    # span is the larger one and on pairs where it is the smaller
    ws = workspace(name)
    n = ws.N * ws.N
    pool = atoms(name)
    larger = set()
    for f in pool[:n]:
        for g in pool[n:2 * n]:
            assert ws.functional_equal(f, g, 3) == word_walk_equal(f, g, 3)
            forward, backward = span_dims(f, g)
            larger.add(backward > forward)
    assert larger == {True, False}


def count_extends(monkeypatch):
    """Patch linalg.extend to count its calls; returns the counter."""
    calls = [0]
    extend = linalg.extend

    def counted(basis, row):
        calls[0] += 1
        return extend(basis, row)

    monkeypatch.setattr(linalg, "extend", counted)
    return calls


@pytest.mark.parametrize("n", [4, 5])
def test_minor_tau_is_decided_on_the_backward_span(n, monkeypatch):
    # the column that l(minor:2)^1_1 reads is an eigenvector of every
    # generator, so the backward span closes after the N^2 states of length
    # 1: x0, y and N^2 candidates reach the elimination.  The forward span
    # alone took 1,345 (SL_q(4)) and 8,251 (SL_q(5)) of them.
    ws = Workspace(FieldConfig.sl(n))
    f = ws.l_entry(ws.corep("minor:2"), 0, 0)
    g = ws.tau_functional(YoungWeight.fundamental(2))
    calls = count_extends(monkeypatch)
    assert ws.functional_equal(f, g, 4) == (True, 4)
    assert calls[0] <= n * n + 2
    assert span_dims(f, g)[1] == 1


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


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("word", [((1, 1), (2, 2)), ((1, 2), (2, 1)), ((2, 2), (1, 1), (1, 2))])
def test_a_difference_found_on_the_backward_side(name, word, monkeypatch):
    # the minor-tau identity makes the forward span the heavier; a word
    # indicator on top of it differs first on that word, and the backward
    # side, reading its states through x0, finds it
    ws = workspace(name)
    f = ws.l_entry(ws.corep("u"), 0, 0)
    g = ws.tau_functional(YoungWeight.fundamental(1)) + word_indicator(ws.N, word)
    reads = []
    dot = linalg.dot

    def read(x, y):
        reads.append(y)
        return dot(x, y)

    monkeypatch.setattr(linalg, "dot", read)
    got = ws.functional_equal(f, g, 4)
    assert got == word_walk_equal(f, g, 4) == (False, len(word))
    x0, _, _ = dual.automaton(f - g)
    assert reads[-1] == x0


def one_backward_span(ws, f, g, degree):
    """ws.functional_equal(f, g, degree), asserting that it builds at most
    one dual.ReachableSpan, started at y, and none at x0, where the forward
    span starts (x0 = y = {} when f - g has no terms)."""
    starts, span = [], dual.ReachableSpan

    def recorded(start, mats):
        starts.append(start)
        return span(start, mats)

    with mock.patch.object(dual, "ReachableSpan", recorded):
        got = ws.functional_equal(f, g, degree)
    x0, (y,), _ = dual.automaton(f - g)
    assert starts in ([], [y])
    assert not x0 or x0 not in starts
    return got


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_minor_tau_builds_one_backward_span(name):
    ws = workspace(name)
    for k in dual.minor_degrees(ws.config):
        v = ws.corep("u" if k == 1 else f"minor:{k}")
        f, g = ws.l_entry(v, 0, 0), ws.tau_functional(YoungWeight.fundamental(k))
        assert one_backward_span(ws, f, g, 4) == (True, 4)


@settings(deadline=None, max_examples=40)
@given(pair=pairs(), degree=st.integers(1, 4))
def test_drawn_pairs_build_one_backward_span(pair, degree):
    ws, f, g = pair
    assert one_backward_span(ws, f, g, degree) == word_walk_equal(f, g, degree)


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
