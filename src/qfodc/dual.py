"""The dual Hopf algebra side: L-functionals, the convolution algebra of
functionals realized as entries of multiplicative matrix representations,
the universal r-form on words, evaluation matrices, rank machinery and dual
separation.

A MatRep assigns to every generator u^i_j a d x d matrix of scalars and
extends to words by matrix products (the unit word maps to the identity).
Its entries are honest linear functionals on the free word algebra; all
representations built here factor through the defining ideal of O(G_q), so
functional equalities certified on free words are faithful.

A Functional is a finite linear combination of (rep, row, col) entries.

The Workspace ties one FieldConfig to its R-matrix, its oracle-pinned
antipode, the corepresentation registry and all caches; it is the
per-session instance behind every operation in this module and in fodc.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from . import coordalg, linalg, rmat
from .coordalg import CoordElem, YoungWeight
from .scalar import ONE, Scalar, UnsupportedConfigError, ZERO


class RankUnstableError(ArithmeticError):
    pass


class AntipodeFailureError(ArithmeticError):
    pass


class UnsupportedFunctionalError(ValueError):
    pass


@dataclass(frozen=True)
class Policy:
    """Degree-escalation policy for ranks and separation certificates."""

    start_degree: int = 2
    stability_window: int = 2
    d_max: int = 6
    separation_length: int = 3

    def __post_init__(self):
        for name in ("start_degree", "stability_window", "d_max", "separation_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"policy {name} must be at least 1")
        last = self.start_degree + self.stability_window - 1
        if self.d_max < last:
            raise ValueError(
                f"policy d_max {self.d_max} is below start_degree + stability_window"
                f" - 1 = {last}, so no rank could ever stabilize"
            )


def positive_or_default(value, default, name):
    """value, or default when value is None; a value below 1 is a ValueError."""
    value = default if value is None else value
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# matrix representations
# ---------------------------------------------------------------------------

class MatRep:
    """Multiplicative matrix-valued map on words, given by generator values.

    gens maps (i, j) -> sparse matrix {row: {col: value}}; missing matrices
    are zero.  Values may be Scalar or CycElem.
    """

    _counter = 0

    def __init__(self, N, labels, gens, name):
        self.N = N
        self.labels = list(labels)
        self.gens = gens
        self.name = name
        self._word_cache = {}
        MatRep._counter += 1
        self.uid = MatRep._counter

    def gen_matrix(self, i, j):
        return self.gens.get((i, j), {})

    def word_matrix(self, word):
        """Value on a word as a sparse matrix (cached)."""
        if word in self._word_cache:
            return self._word_cache[word]
        if not word:
            m = linalg.mat_identity(self.labels)
        else:
            m = self.word_matrix(word[:-1])
            m = linalg.mat_mul(m, self.gen_matrix(*word[-1]))
        self._word_cache[word] = m
        return m

    def entry_on_word(self, row, col, word):
        """Single entry of the word value via row-vector chaining."""
        state = {row: ONE}
        for g in word:
            state = linalg.vec_mat(state, self.gen_matrix(*g))
            if not state:
                return ZERO
        return state.get(col, ZERO)

    def __repr__(self):
        return f"MatRep[{self.name}, dim {len(self.labels)}]"


def eps_rep(config):
    """The counit as a 1x1 representation."""
    gens = {(i, i): {0: {0: ONE}} for i in range(1, config.N + 1)}
    return MatRep(config.N, [0], gens, "eps")


def eps_zeta_rep(config, zeta):
    """The twist character: u^i_j maps to zeta * delta_ij."""
    v = zeta.value
    gens = {(i, i): {0: {0: v}} for i in range(1, config.N + 1)}
    return MatRep(config.N, [0], gens, f"eps[{zeta}]")


def lplus(config, rdata):
    """L+ of the fundamental corepresentation: values z * R^{ki}_{lj}."""
    N = config.N
    z = rdata.z
    gens = {}
    for (k, i, l, j), v in rdata.entries.items():
        gens.setdefault((k, l), {}).setdefault(i, {})[j] = z * v
    return MatRep(N, range(1, N + 1), gens, "L+")


def lminus(config, rdata):
    """L- of the fundamental corepresentation: values z^{-1} R^{-1}{}^{ik}_{jl}."""
    N = config.N
    zi = rdata.z.inverse()
    gens = {}
    for (i, k, j, l), v in rdata.inverse_entries.items():
        gens.setdefault((k, l), {}).setdefault(i, {})[j] = zi * v
    return MatRep(N, range(1, N + 1), gens, "L-")


def conv(f, g, name=None):
    """Convolution product representation: values sum_k F(u^i_k) (x) G(u^k_j).

    Entries represent all pairwise convolution products f^a_b * g^c_d with
    row (a, c) and column (b, d); multiplicativity is inherited because the
    coproduct is an algebra map.  Equal entries share one scalar object.
    """
    N = f.N
    labels = [(a, c) for a in f.labels for c in g.labels]
    gens = {}
    seen = {}  # keyed by type too: a rational CycElem equals a Scalar
    products = {}  # keyed by operand identity; f and g keep every operand alive
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            acc = {}
            for k in range(1, N + 1):
                fm = f.gens.get((i, k))
                gm = g.gens.get((k, j))
                if not fm or not gm:
                    continue
                for a, frow in fm.items():
                    for b, fv in frow.items():
                        for c, grow in gm.items():
                            for d, gv in grow.items():
                                key = (a, c)
                                row = acc.setdefault(key, {})
                                colk = (b, d)
                                s = row.get(colk)
                                t = products.get((id(fv), id(gv)))
                                if t is None:
                                    t = products[(id(fv), id(gv))] = fv * gv
                                if s is None:
                                    row[colk] = t
                                else:
                                    s = s + t
                                    if s.is_zero():
                                        del row[colk]
                                    else:
                                        row[colk] = s
            acc = {r: {col: seen.setdefault((v.__class__, v), v) for col, v in row.items()}
                   for r, row in acc.items() if row}
            if acc:
                gens[(i, j)] = acc
    return MatRep(N, labels, gens, name or f"conv({f.name},{g.name})")


def conv_power(f, k):
    """k-fold convolution power f * ... * f, the left fold of conv.  Its
    labels are conv's left-nested pairs, nested_label((a1, ..., ak))."""
    if k < 1:
        raise ValueError(f"convolution power needs k >= 1, got {k}")
    rep = f
    for t in range(2, k + 1):
        rep = conv(rep, f, f"{f.name}^*{t}")
    return rep


def nested_label(seq):
    """The label (((a1, a2), a3), ...) that a left fold of conv gives the
    factors' labels a1, a2, ...; a single label stays as it is."""
    it = iter(seq)
    lab = next(it)
    for a in it:
        lab = (lab, a)
    return lab


def antipode_rep(f, config):
    """Representation whose entries are the antipodes of f's entries.

    The generator values solve the convolution-inverse condition
    sum_k S(f^i_k)(u^a_m) f^k_j(u^m_b) = delta_ij delta_ab, i.e. they are
    read off the inverse of the (d*N) x (d*N) block matrix of generator
    values; the result is transposed in the representation indices so that
    it is again a multiplicative matrix map.
    """
    N = config.N
    big = {}
    for (i, j), m in f.gens.items():
        for a, row in m.items():
            for b, v in row.items():
                big.setdefault((a, i), {})[(b, j)] = v
    labels = [(a, i) for a in f.labels for i in range(1, N + 1)]
    try:
        inv = linalg.mat_inverse(big, labels)
    except ArithmeticError as exc:
        raise AntipodeFailureError(f"generator block matrix of {f.name} is singular") from exc
    gens = {}
    for (y, i), row in inv.items():
        for (x, j), v in row.items():
            if not v.is_zero():
                gens.setdefault((i, j), {}).setdefault(x, {})[y] = v
    return MatRep(N, f.labels, gens, f"S({f.name})")


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

class Functional:
    """Finite linear combination of MatRep entries: sum coeff * F[row, col]."""

    __slots__ = ("terms", "label")

    def __init__(self, terms, label=""):
        merged = {}
        for rep, row, col, coeff in terms:
            key = (rep, row, col)
            cur = merged.get(key)
            merged[key] = coeff if cur is None else cur + coeff
        self.terms = tuple(
            (rep, row, col, c) for (rep, row, col), c in merged.items() if not c.is_zero()
        )
        self.label = label

    def __add__(self, other):
        return Functional(self.terms + other.terms, f"{self.label}+{other.label}")

    def __sub__(self, other):
        return self + other.scaled(Scalar.from_int(-1))

    def scaled(self, k):
        return Functional(
            [(rep, r, c, k * co) for rep, r, c, co in self.terms], self.label
        )

    def __neg__(self):
        return self.scaled(Scalar.from_int(-1))

    def value_at_unit(self):
        total = ZERO
        for rep, r, c, co in self.terms:
            if r == c:
                total = co + total
        return total

    def evaluate_word(self, word):
        total = ZERO
        for rep, r, c, co in self.terms:
            v = rep.entry_on_word(r, c, word)
            if not v.is_zero():
                total = co * v + total
        return total

    def evaluate(self, elem):
        """Linear evaluation on a CoordElem."""
        total = ZERO
        for w, c in elem.terms.items():
            v = self.evaluate_word(w)
            if not v.is_zero():
                total = c * v + total
        return total

    def word_values(self, degree):
        """Values on all words of degree <= degree, as {word: value}; words
        with value exactly zero are omitted."""
        return word_values([self], degree)[0]

    def __repr__(self):
        return f"Functional[{self.label or len(self.terms)} terms]"


def word_values(fs, degree):
    """Values of each functional in fs on all words of degree <= degree, as
    one {word: value} dict per functional (exact zeros omitted).

    One traversal per distinct (rep, row) serves every term of every
    functional that reads that row."""
    groups = {}
    for k, f in enumerate(fs):
        for rep, r, c, co in f.terms:
            groups.setdefault((rep, r), {}).setdefault(k, []).append((c, co))
    out = [{} for _ in fs]
    for (rep, r), by_f in groups.items():
        for word, state in iter_word_states(rep, {r: ONE}, degree):
            for k, cols in by_f.items():
                acc = None
                for c, co in cols:
                    v = state.get(c)
                    if v is None:
                        continue
                    t = co * v
                    acc = t if acc is None else acc + t
                if acc is None or acc.is_zero():
                    continue
                total = out[k]
                cur = total.get(word)
                if cur is None:
                    total[word] = acc
                else:
                    cur = cur + acc
                    if cur.is_zero():
                        del total[word]
                    else:
                        total[word] = cur
    return out


def iter_word_states(rep, x0, max_deg):
    """Depth-first traversal of all words of degree <= max_deg, yielding
    (word, x0 * rep(word)) and pruning subtrees with vanished states."""
    gen_order = sorted(rep.gens)
    stack = [((), x0)]
    while stack:
        word, state = stack.pop()
        yield word, state
        if len(word) >= max_deg:
            continue
        for g in reversed(gen_order):
            ns = linalg.vec_mat(state, rep.gens[g])
            if ns:
                stack.append((word + (g,), ns))


def all_words(N, degree):
    """All words of degree <= degree in deterministic (degree, lex) order."""
    gens = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    out = [()]
    layer = [()]
    for _ in range(degree):
        layer = [w + (g,) for w in layer for g in gens]
        out.extend(layer)
    return out


def eps_word_values(degree, N):
    """The counit as a word-value dict (1 on words with all i = j)."""
    out = {(): ONE}
    diag = [(i, i) for i in range(1, N + 1)]
    layer = [()]
    for _ in range(degree):
        layer = [w + (g,) for w in layer for g in diag]
        for w in layer:
            out[w] = ONE
    return out


# ---------------------------------------------------------------------------
# the per-configuration workspace
# ---------------------------------------------------------------------------

class Workspace:
    """One quantum group: R-matrix, oracle-pinned antipode, corepresentation
    registry, L-functional representations and all evaluation caches."""

    def __init__(self, config, policy=None):
        self.config = config
        self.N = config.N
        self.policy = policy or Policy()
        self.rdata = rmat.build_r(config)
        self.lplus = lplus(config, self.rdata)
        self.lminus = lminus(config, self.rdata)
        self._eps = eps_rep(config)
        self._pair_memo = {}
        self._coreps = {}
        self._corep_reps = {}
        self._separators = None
        self._antipode = None
        self._exterior = None
        self._minor_tables = {}
        self._projectors = None

    # -- low-level reps ------------------------------------------------------

    def eps_functional(self):
        return Functional([(self._eps, 0, 0, ONE)], "eps")

    def power(self, base, k):
        """conv_power(base, k), cached per (base, k)."""
        key = ("power", base.uid, k)
        if key not in self._corep_reps:
            self._corep_reps[key] = conv_power(base, k)
        return self._corep_reps[key]

    def convolve(self, f, g):
        """f * g as a Functional.  For f = sum a F[r, c] and g = sum b G[r', c'],
        f * g = sum a b conv(F, G)[(r, r'), (c, c')] on every word, since conv
        is multiplicative and the coproduct is an algebra map."""
        terms = [
            (self._conv(frep, grep), (fr, gr), (fc, gc), fco * gco)
            for frep, fr, fc, fco in f.terms
            for grep, gr, gc, gco in g.terms
        ]
        return Functional(terms, f"{f.label}*{g.label}")

    def _conv(self, frep, grep):
        """conv(frep, grep), cached per pair of reps."""
        key = ("conv", frep.uid, grep.uid)
        if key not in self._corep_reps:
            self._corep_reps[key] = conv(frep, grep)
        return self._corep_reps[key]

    def lplus_entry(self, i, j):
        return Functional([(self.lplus, i, j, ONE)], f"l+[{i},{j}]")

    def lminus_entry(self, i, j):
        return Functional([(self.lminus, i, j, ONE)], f"l-[{i},{j}]")

    # -- universal r-form on words -------------------------------------------

    def _pair_words(self, base, word, fixed):
        """The entry of power(base, |fixed|) at the index pairs of fixed,
        read right to left, on word: r(word (x) fixed) for base L+ and
        rbar(fixed (x) word) for base L-.  The empty fixed word gives the
        counit of word."""
        key = (base.uid, word, fixed)
        v = self._pair_memo.get(key)
        if v is None:
            if not fixed:
                v = ONE if all(i == j for i, j in word) else ZERO
            else:
                rev = fixed[::-1]
                v = self.power(base, len(fixed)).entry_on_word(
                    nested_label(i for i, _ in rev), nested_label(j for _, j in rev), word
                )
            self._pair_memo[key] = v
        return v

    def _pairing(self, base, a, b):
        """Bilinear extension of _pair_words(base, w1, w2) over the words
        w1 of a and w2 of b."""
        total = ZERO
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                v = self._pair_words(base, w1, w2)
                if not v.is_zero():
                    total = total + c1 * c2 * v
        return total

    def r_form(self, a, b):
        """The universal r-form extended to word pairs by the bicharacter
        axioms (with the leg-order reversal in the second slot)."""
        return self._pairing(self.lplus, a, b)

    def rbar_form(self, a, b):
        """Convolution inverse of the r-form, extended from R^{-1} by the
        inverse bicharacter axioms (degree-preserving; agrees with
        r(S(a) (x) b), which is spot-checked in the tests)."""
        return self._pairing(self.lminus, b, a)

    def q_form(self, a, b):
        """q(a (x) b) = r(b1 (x) a1) r(a2 (x) b2), the factorizability form."""
        total = ZERO
        da = coordalg.coproduct(a, self.N)
        db = coordalg.coproduct(b, self.N)
        for (a1, a2), ca in da.items():
            for (b1, b2), cb in db.items():
                v1 = self._pair_words(self.lplus, b1, a1)
                if v1.is_zero():
                    continue
                v2 = self._pair_words(self.lplus, a2, b2)
                if v2.is_zero():
                    continue
                total = total + ca * cb * v1 * v2
        return total

    # -- dual separation ------------------------------------------------------

    def separating_reps(self, length=None):
        """All convolution words over {L+, L-} up to the policy length, as
        (word length, representation) pairs, shortest first."""
        length = positive_or_default(length, self.policy.separation_length, "separation length")
        if self._separators is None or self._separators[0] < length:
            reps = [(0, self._eps)]
            layer = [((), None)]
            for l in range(1, length + 1):
                nxt = []
                for seq, rep in layer:
                    for c in "+-":
                        base = self.lplus if c == "+" else self.lminus
                        nrep = base if rep is None else conv(rep, base)
                        nxt.append((seq + (c,), nrep))
                        reps.append((l, nrep))
                layer = nxt
            self._separators = (length, reps)
        return [(l, rep) for l, rep in self._separators[1] if l <= length]

    def separated_equal(self, a, b, length=None):
        """Decide a = b in O(G_q) by evaluating the separating family on
        a - b.  False is a certain inequality, witnessed at the returned
        family length; True is certified only up to that length."""
        length = positive_or_default(length, self.policy.separation_length, "separation length")
        diff = a - b
        if diff.is_zero():
            return True, 0
        for l, rep in self.separating_reps(length):
            total = {}
            for w, c in diff.terms.items():
                for r, row in rep.word_matrix(w).items():
                    for col, v in row.items():
                        s = total.get((r, col))
                        total[(r, col)] = c * v if s is None else s + c * v
            if not all(v.is_zero() for v in total.values()):
                return False, l
        return True, length

    # -- antipode (oracle-pinned) ---------------------------------------------

    def antipode_table(self):
        """Generator antipode table, selected solely by the antipode axiom
        checked under dual separation."""
        if self._antipode is not None:
            return self._antipode
        cands = self._antipode_candidates()
        winners = []
        for tab in cands:
            if self._antipode_axiom_holds(tab):
                winners.append(tab)
        if not winners:
            raise AntipodeFailureError("no antipode candidate passes the axiom oracle")
        if len(winners) > 1:
            raise AntipodeFailureError("antipode candidate not unique")
        self._antipode = winners[0]
        return self._antipode

    def _antipode_candidates(self):
        N = self.N
        q = self.config.q
        if self.config.series == "A":
            rel = self.exterior_relations()
            minors = self.minor_table(N - 1)
            cands = []
            for sgn in (1, -1):
                tab = []
                for i in range(1, N + 1):
                    row = []
                    for j in range(1, N + 1):
                        rows = tuple(t for t in range(1, N + 1) if t != j)
                        cols = tuple(t for t in range(1, N + 1) if t != i)
                        coeff = (-q) ** (sgn * (i - j))
                        row.append(minors[(rows, cols)].scaled(coeff))
                    tab.append(row)
                cands.append(tab)
            return cands
        eps_i, rho = rmat._symplectic_data(N)
        prim = lambda i: N + 1 - i
        cands = []
        for sgn in (1, -1):
            tab = []
            for i in range(1, N + 1):
                row = []
                for j in range(1, N + 1):
                    coeff = q ** (sgn * (rho[i] - rho[j])) * Scalar.from_int(eps_i[i] * eps_i[j])
                    row.append(CoordElem.generator(prim(j), prim(i)).scaled(coeff))
                tab.append(row)
            cands.append(tab)
        return cands

    def _antipode_axiom_holds(self, tab):
        N = self.N
        unit = CoordElem.unit()
        zero = CoordElem()
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                want = unit if i == j else zero
                left = CoordElem()
                right = CoordElem()
                for k in range(1, N + 1):
                    left = left + tab[i - 1][k - 1] * CoordElem.generator(k, j)
                    right = right + CoordElem.generator(i, k) * tab[k - 1][j - 1]
                if not self.separated_equal(left, want)[0]:
                    return False
                if not self.separated_equal(right, want)[0]:
                    return False
        return True

    def antipode(self, a):
        return coordalg.apply_antipode(a, self.antipode_table())

    # -- exterior algebra, minors, coreps --------------------------------------

    def spectral_projectors(self):
        if self._projectors is None:
            self._projectors = rmat.spectral_projectors(self.rdata)
        return self._projectors

    def exterior_relations(self):
        if self._exterior is None:
            self._exterior = coordalg.exterior_relations(
                self.rdata, self.spectral_projectors()
            )
        return self._exterior

    def minor_table(self, k):
        if k not in self._minor_tables:
            if self.config.series == "C" and k > 1:
                raise coordalg.InvalidDegreeError(
                    "C-series minors are supported for k = 1 only"
                )
            rel = self.exterior_relations() if k > 1 else None
            self._minor_tables[k] = coordalg.quantum_minors(self.N, k, rel)
        return self._minor_tables[k]

    def principal_minor(self, k):
        key = tuple(range(1, k + 1))
        return self.minor_table(k)[(key, key)]

    def corep(self, descriptor):
        """Parse a corepresentation descriptor and register the result.

        Grammar: 1 | u | uc | tensor(D,D) | dsum(D,D) | minor:k |
        proj:sym(tensor(u,u)) | proj:anti(tensor(u,u))
        """
        desc = descriptor.replace(" ", "")
        if desc in self._coreps:
            return self._coreps[desc]
        if _nesting_depth(desc) > MAX_DESCRIPTOR_DEPTH:
            raise UnsupportedConfigError(
                f"corepresentation descriptor nests deeper than {MAX_DESCRIPTOR_DEPTH} levels"
            )
        dim = _predicted_dim(desc, self.N)
        if dim is not None and dim > MAX_COREP_DIM:
            raise UnsupportedConfigError(
                f"corepresentation descriptor has dimension {dim} > {MAX_COREP_DIM}"
            )
        cor = self._build_corep(desc)
        self._coreps[desc] = cor
        return cor

    def _build_corep(self, desc):
        """Build a descriptor's corepresentation.  The comatrix identity holds
        on the nose for 1, u, tensors and sums; every other corepresentation
        is registered only after _check_comatrix."""
        N = self.N
        if desc == "1":
            return coordalg.trivial_corep()
        if desc == "u":
            return coordalg.fundamental_corep(N)
        for head in ("tensor(", "dsum("):
            if desc.startswith(head):
                args = _split_two(desc[len(head):-1])
                a, b = self.corep(args[0]), self.corep(args[1])
                return coordalg.tensor(a, b) if head == "tensor(" else coordalg.direct_sum(a, b)
        if desc == "uc":
            cor = coordalg.contragredient(self.corep("u"), self.antipode_table())
        elif desc.startswith("minor:"):
            k = int(desc.split(":", 1)[1])
            if not 1 <= k <= self.config.rank:
                raise coordalg.InvalidDegreeError(
                    f"minor degree {k} out of range 1..{self.config.rank}"
                )
            cor = coordalg.minor_corep(N, k, None if k == 1 else self.exterior_relations())
        elif desc.startswith("proj:"):
            which = _PROJECTIONS.get(desc)
            if which is None:
                raise UnsupportedConfigError(
                    f"{desc!r}: sym/anti projections act on tensor(u,u) only"
                )
            parent = self.corep("tensor(u,u)")
            want = N * (N + 1) // 2 if which == "sym" else N * (N - 1) // 2
            pmat = None
            for _, p in self.spectral_projectors():
                if rmat.mat_rank(p) == want:
                    pmat = p
                    break
            if pmat is None:
                raise UnsupportedConfigError(
                    f"{desc!r}: no spectral projector of rank {want} on {self.config}"
                )
            labels = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
            frame = YoungWeight((2,)) if which == "sym" else (
                YoungWeight.fundamental(2) if self.config.rank >= 2 else None
            )
            cor = coordalg.projected_corep(
                parent, pmat, labels, desc,
                frame=frame, irreducible=(self.config.series == "A" and which == "sym") or None,
            )
        else:
            raise ValueError(f"cannot parse corepresentation descriptor {desc!r}")
        self._check_comatrix(cor)
        return cor

    def _check_comatrix(self, cor):
        """Raise NotInvariantError unless Delta(v^i_j) = sum_k v^i_k (x) v^k_j
        for every entry.

        The defect of each entry is a sum of c w1 (x) w2.  Each entry (r, c)
        of each separating representation m applied to the second leg leaves
        the first-leg element sum c m(w2)[r, c] w1, which must vanish under
        separated_equal.  Since the entries of m1(w1) (x) m(w2) factor, this
        decides the same as separating both legs at once."""
        zero = CoordElem()
        for i in range(cor.dim):
            for j in range(cor.dim):
                defect = coordalg.coproduct(cor.entries[i][j], self.N)
                for k in range(cor.dim):
                    for w1, c1 in cor.entries[i][k].terms.items():
                        for w2, c2 in cor.entries[k][j].terms.items():
                            defect[(w1, w2)] = defect.get((w1, w2), ZERO) - c1 * c2
                defect = {key: c for key, c in defect.items() if not c.is_zero()}
                if not defect:
                    continue
                for _, rep in self.separating_reps(2):
                    legs = {}
                    for (w1, w2), c in defect.items():
                        for r, row in rep.word_matrix(w2).items():
                            for col, v in row.items():
                                leg = legs.setdefault((r, col), {})
                                leg[w1] = leg.get(w1, ZERO) + c * v
                    for leg in legs.values():
                        if not self.separated_equal(CoordElem(leg), zero, 2)[0]:
                            raise coordalg.NotInvariantError(
                                f"entry ({i},{j}) of {cor.label} fails the comatrix check"
                            )

    def tensor_power_corep(self, k):
        if k == 0:
            return self.corep("1")
        desc = "u"
        for _ in range(k - 1):
            desc = f"tensor(u,{desc})"
        return self.corep(desc)

    # -- L-functionals of arbitrary coreps --------------------------------------

    def l_corep(self, base, v):
        """MatRep of the L-functionals of v over base L+ or L-: u^a_b maps
        to the matrix [_pairing(base, u^a_b, v^i_j)], so that
        l+[v]^i_j = r(. (x) v^i_j) and l-[v]^i_j = rbar(v^i_j (x) .)."""
        key = ("L", base.uid, v.label)
        if key in self._corep_reps:
            return self._corep_reps[key]
        N = self.N
        gens = {}
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                g = CoordElem.generator(a, b)
                m = {}
                for i in range(v.dim):
                    for j in range(v.dim):
                        val = self._pairing(base, g, v.entries[i][j])
                        if not val.is_zero():
                            m.setdefault(i + 1, {})[j + 1] = val
                if m:
                    gens[(a, b)] = m
        rep = MatRep(N, range(1, v.dim + 1), gens, f"{base.name}[{v.label}]")
        self._corep_reps[key] = rep
        return rep

    def mrep(self, v):
        """conv(S(L-[v]), L+[v]): houses all l(v^i_j)."""
        key = ("m", v.label)
        if key in self._corep_reps:
            return self._corep_reps[key]
        srep = antipode_rep(self.l_corep(self.lminus, v), self.config)
        rep = conv(srep, self.l_corep(self.lplus, v), name=f"M[{v.label}]")
        self._corep_reps[key] = rep
        return rep

    def l_entry(self, v, i, j):
        """l(v^i_j) = sum_k S(l-[v]^i_k) l+[v]^k_j as a Functional."""
        m = self.mrep(v)
        terms = [
            (m, (k, k), (i + 1, j + 1), ONE) for k in range(1, v.dim + 1)
        ]
        return Functional(terms, f"l({v.label}[{i + 1},{j + 1}])")

    def l_of(self, a):
        """l(a)(.) = q(. (x) a), realized over the graded tensor powers."""
        by_degree = {}
        for w, c in a.terms.items():
            by_degree.setdefault(len(w), {})[w] = c
        terms = []
        for k, words in sorted(by_degree.items()):
            if k == 0:
                for w, c in words.items():
                    terms.append((self._eps, 0, 0, c))
                continue
            v = self.tensor_power_corep(k)
            pos = _tensor_position_map(self.N, k)
            m = self.mrep(v)
            for w, c in words.items():
                i = pos[tuple(p[0] for p in w)]
                j = pos[tuple(p[1] for p in w)]
                for t in range(1, v.dim + 1):
                    terms.append((m, (t, t), (i, j), c))
        return Functional(terms, "l(elem)")

    # -- distinguished functionals ----------------------------------------------

    def tau_functional(self, weight):
        """tau(-2 lambda) = prod_k ((l+^1_1 ... l+^k_k)^2)^{m_k}."""
        seq = []
        for k, mult in enumerate(weight.m, start=1):
            seq.extend(list(range(1, k + 1)) * (2 * mult))
        if not seq:
            return self.eps_functional()
        rep = self.power(self.lplus, len(seq))
        lab = nested_label(seq)
        return Functional([(rep, lab, lab, ONE)], f"tau(-2*{weight})")

    def k_functional(self, i):
        """K_i = l-^1_1 ... l-^i_i."""
        rep = self.power(self.lminus, i)
        lab = nested_label(range(1, i + 1))
        return Functional([(rep, lab, lab, ONE)], f"K_{i}")

    def k_alpha_functional(self, i):
        """K_{alpha_i} = prod_j K_j^{a_ji} via antipodes for negative powers."""
        a = self.config.cartan()
        factors = []
        for j in range(1, self.config.rank + 1):
            e = a[j - 1][i - 1]
            if e == 0:
                continue
            base = self.power(self.lminus, j)
            lab = nested_label(range(1, j + 1))
            if e < 0:
                base = antipode_rep(base, self.config)
                e = -e
            factors.extend([(base, lab)] * e)
        rep = None
        row = None
        for base, lab in factors:
            if rep is None:
                rep, row = base, lab
            else:
                rep = conv(rep, base)
                row = (row, lab)
        return Functional([(rep, row, row, ONE)], f"K_alpha_{i}")

    # -- adjoint action -----------------------------------------------------------

    def ad_r(self, f, x):
        """ad_R(f)x = S(f_(1)) x f_(2) for f a MatRep-housed functional."""
        if not f.terms:
            return Functional([], "ad(0)")
        freps = {rep for rep, *_ in f.terms}
        if len(freps) != 1:
            raise UnsupportedFunctionalError("ad_r needs f inside a single MatRep")
        frep = freps.pop()
        out_terms = []
        for xrep, xr, xc, xco in x.terms:
            c3 = self._ad_rep(frep, xrep)
            for _, a, b, fco in f.terms:
                for k in frep.labels:
                    out_terms.append((c3, (k, (xr, k)), (a, (xc, b)), fco * xco))
        return Functional(out_terms, f"ad({f.label}){x.label}")

    def _ad_rep(self, frep, xrep):
        """conv(S(frep), conv(xrep, frep)), the MatRep that houses ad_R(f)x
        for f inside frep and x inside xrep (cached)."""
        key = ("ad", frep.uid, xrep.uid)
        if key not in self._corep_reps:
            skey = ("S", frep.uid)
            if skey not in self._corep_reps:
                self._corep_reps[skey] = antipode_rep(frep, self.config)
            self._corep_reps[key] = conv(self._corep_reps[skey], self._conv(xrep, frep))
        return self._corep_reps[key]

    # -- evaluation matrices, ranks, equality --------------------------------------

    def stabilized_rank(self, rows_at, policy=None):
        """Escalate the evaluation degree until the rank of rows_at(degree)
        is constant over the stability window; returns (rank,
        certified_degree, rows at that degree)."""
        policy = policy or self.policy
        ranks = []
        d = policy.start_degree
        while d <= policy.d_max:
            rows = rows_at(d)
            ranks.append(linalg.rank(rows))
            if len(ranks) >= policy.stability_window and len(
                set(ranks[-policy.stability_window:])
            ) == 1:
                return ranks[-1], d, rows
            d += 1
        raise RankUnstableError(
            f"rank did not stabilize up to degree {policy.d_max}: {ranks}"
        )

    def functional_equal(self, f, g, degree=None):
        """Equality of functionals on all words up to the certification
        degree.  False is definitive; True certifies up to the degree."""
        degree = positive_or_default(degree, self.policy.d_max, "degree")
        vf = f.word_values(degree)
        vg = g.word_values(degree)
        for w in set(vf) | set(vg):
            if not (vf.get(w, ZERO) - vg.get(w, ZERO)).is_zero():
                return False, len(w)
        return True, degree

    def coideal_check(self, basis, degree=None):
        """Bicovariance certificate for span(basis) + C eps on words of
        degree <= degree: the conjunction of _right_coideal (right translates
        stay in the span) and _ad_invariant (ad_R by every l+/l- generator
        entry maps the basis into the span).  Returns (ok, degree)."""
        degree = positive_or_default(degree, self.policy.start_degree + 1, "degree")
        rows = word_values(basis, degree) + [eps_word_values(degree, self.N)]
        ok = self._right_coideal(rows, degree) and self._ad_invariant(basis, rows, degree)
        return ok, degree

    def _right_coideal(self, rows, degree):
        """(i) For every basis row X (all rows but the last, eps) and every
        nonempty word b, X(. b) on words of degree <= degree - |b| lies in
        the span of the rows truncated to that degree.  X(. b)(w) = X(w b),
        so the translates are read off the rows themselves."""
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

    def _ad_invariant(self, basis, rows, degree):
        """(ii) ad_R(f) X lies in the span of rows for every l+/l- generator
        entry f and every basis functional X.  One traversal per (sign,
        X-rep, X-row) serves every f and every X."""
        span = linalg.echelon(rows)
        xreps = {}
        for x in basis:
            for rep, r, c, co in x.terms:
                xreps.setdefault(rep, set()).add(r)
        for frep in (self.lplus, self.lminus):
            tables = {}
            for xrep, xrows in xreps.items():
                c3 = self._ad_rep(frep, xrep)
                for xr in xrows:
                    x0 = {(k, (xr, k)): ONE for k in frep.labels}
                    tables[(xrep.uid, xr)] = dict(iter_word_states(c3, x0, degree))
            for a in range(1, self.N + 1):
                for bcol in range(1, self.N + 1):
                    for x in basis:
                        row = {}
                        for xrep, xr, xc, xco in x.terms:
                            colkey = (a, (xc, bcol))
                            for w, state in tables[(xrep.uid, xr)].items():
                                sv = state.get(colkey)
                                if sv is None:
                                    continue
                                t = xco * sv
                                cur = row.get(w)
                                cur = t if cur is None else cur + t
                                if cur.is_zero():
                                    row.pop(w, None)
                                else:
                                    row[w] = cur
                        if not linalg.in_row_space(span, row):
                            return False
        return True

    # -- JSON export ---------------------------------------------------------------

    def export_eval_matrix(self, fs, degree):
        words = all_words(self.N, degree)
        rows = word_values(fs, degree)
        return {
            "columns": [coordalg.word_str(w) for w in words],
            "rows": [[str(r.get(w, ZERO)) for w in words] for r in rows],
        }


def _tensor_position_map(N, k):
    """Multi-index -> 1-based position in the k-fold tensor power of u.

    Matches the entry layout of coordalg.tensor built as u (x) (u (x) ...).
    """
    out = {}
    for pos, multi in enumerate(product(range(1, N + 1), repeat=k)):
        out[multi] = pos + 1
    return out


# the projections of tensor(u,u) onto its sym/anti spectral summands
_PROJECTIONS = {"proj:sym(tensor(u,u))": "sym", "proj:anti(tensor(u,u))": "anti"}

# Descriptor bounds, checked before anything is built.  Every descriptor of
# the CLI, the tests and the benchmark nests at most 5 levels and has
# dimension at most 27; deeper nesting would exhaust the parser's recursion,
# and the dimension of nested tensor products grows exponentially.
MAX_DESCRIPTOR_DEPTH = 32
MAX_COREP_DIM = 256


def _nesting_depth(desc):
    depth = deepest = 0
    for ch in desc:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


def _predicted_dim(desc, N):
    """The dimension Workspace._build_corep gives a descriptor, read from the
    text alone; None where _build_corep rejects the text itself."""
    if desc == "1":
        return 1
    if desc in ("u", "uc"):
        return N
    for head in ("tensor(", "dsum("):
        if desc.startswith(head):
            try:
                a, b = _split_two(desc[len(head):-1])
            except ValueError:
                return None
            da, db = _predicted_dim(a, N), _predicted_dim(b, N)
            if da is None or db is None:
                return None
            return da * db if head == "tensor(" else da + db
    if desc.startswith("minor:"):
        try:
            k = int(desc.split(":", 1)[1])
        except ValueError:
            return None
        return comb(N, k) if 1 <= k <= N else None
    which = _PROJECTIONS.get(desc)
    if which is None:
        return None
    return N * (N + 1) // 2 if which == "sym" else N * (N - 1) // 2


def _split_two(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch in "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return s[:i], s[i + 1:]
    raise ValueError(f"expected two comma-separated descriptors in {s!r}")
