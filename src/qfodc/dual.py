"""The dual Hopf algebra side: L-functionals, the convolution algebra of
functionals realized as entries of multiplicative matrix representations,
evaluation matrices, rank machinery and dual separation.

A MatRep assigns to every generator u^i_j a d x d matrix of scalars and
extends to words by matrix products (the unit word maps to the identity).
Its entries are honest linear functionals on the free word algebra; all
representations built here factor through the defining ideal of O(G_q), so
functional equalities certified on free words are faithful.

A Functional is a finite linear combination of (rep, row, col) entries.

The L-functional tables of a corepresentation v are read off L+, L- and
S(L-) on v's entries (Workspace.l_corep, Workspace.antipode_l_corep).

The Workspace ties one FieldConfig to its R-matrix, its corepresentation
registry (each descriptor parsed once by _parse, every node registered under
its text) and one keyed cache of what is derived from them: the
oracle-pinned antipode, the projectors, minors and the representations; it
is the per-session instance behind every operation in this module and in
fodc.
"""

from __future__ import annotations

from itertools import product
from math import comb

from . import coordalg, linalg, rmat
from .coordalg import CoordElem
from .cyclotomic import TRIVIAL
from .scalar import ONE, Scalar, UnsupportedConfigError, ZERO


class RankUnstableError(ArithmeticError):
    pass


class AntipodeFailureError(ArithmeticError):
    pass


class NotACharacterError(ArithmeticError):
    pass


# The degree-escalation policy.  A rank is computed at START_DEGREE,
# START_DEGREE + 1, ... and certified at the first degree where the last
# STABILITY_WINDOW ranks agree; it is given up above Workspace's d_max
# (default D_MAX), the one degree setting.  SEPARATION_LENGTH is the default
# length of the separating family, and CHECK_DEGREE the default degree of
# every certificate that does not escalate.
START_DEGREE = 2
STABILITY_WINDOW = 2
D_MAX = 6
SEPARATION_LENGTH = 3
CHECK_DEGREE = START_DEGREE + 1

# The most words of degree <= d on the N^2 generators, sum_{t <= d} N^(2t),
# that an explicit degree may span; checked where the degree enters, before
# any work.  The largest use in the CLI's tests, CI and benchmark is Sp_q(6)
# minor-tau at degree 4, 1,727,605 words.  The bound refuses the degrees that
# their word count alone rules out, not every slow one: on SL_q(2), `verify
# --claim coideal` takes 5 s of process time at degree 10 (1.4 million
# words), but `verify --claim factorizability` takes 2.1 s at degree 4, 45 s
# at degree 5 and had not finished after 200 s at degree 6 (2-CPU x86-64
# Linux host, Python 3.11), so that claim checks a smaller bound of its own
# (fodc.MAX_GRAM_WORDS).
MAX_WORDS = 2_000_000


def check_word_count(N, degree, limit=MAX_WORDS):
    """Raise UnsupportedConfigError if the words of degree <= degree
    outnumber limit."""
    count = layer = 1
    for _ in range(degree):
        layer *= N * N
        count += layer
        if count > limit:
            raise UnsupportedConfigError(
                f"degree {degree} spans more than {limit} words on N = {N}"
            )


def positive_or_default(value, default, name):
    """value, or default when value is None; a value below 1, or no value
    and no default, is a ValueError."""
    value = default if value is None else value
    if value is None:
        raise ValueError(f"{name} must be given")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# matrix representations
# ---------------------------------------------------------------------------

class MatRep:
    """Multiplicative matrix-valued map on words, given by generator values.

    gens maps (i, j) -> sparse matrix {row: {col: value}}; missing matrices
    are zero.  Values may be Scalar or CycElem.  A MatRep hashes by
    identity, so caches key on the object itself.
    """

    def __init__(self, N, labels, gens, name):
        self.N = N
        self.labels = list(labels)
        self.gens = gens
        self.name = name
        self._word_cache = {}

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
    coproduct is an algebra map.
    """
    N = f.N
    labels = [(a, c) for a in f.labels for c in g.labels]
    gens = {}
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
                                t = fv * gv
                                if s is None:
                                    row[colk] = t
                                else:
                                    s = s + t
                                    if s.is_zero():
                                        del row[colk]
                                    else:
                                        row[colk] = s
            acc = {r: row for r, row in acc.items() if row}
            if acc:
                gens[(i, j)] = acc
    return MatRep(N, labels, gens, name or f"conv({f.name},{g.name})")


def conv_power(f, k):
    """k-fold convolution power f * ... * f, the left fold of conv.  Its
    labels are conv's left-nested pairs (((a1, a2), a3), ...)."""
    if k < 1:
        raise ValueError(f"convolution power needs k >= 1, got {k}")
    rep = f
    for t in range(2, k + 1):
        rep = conv(rep, f, f"{f.name}^*{t}")
    return rep


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


def rep_value(m, a):
    """m(a) = sum_w c_w m(w) for a CoordElem a, as a sparse matrix with
    exact zeros and empty rows dropped."""
    mat = {}
    for w, c in a.terms.items():
        for r, row in m.word_matrix(w).items():
            linalg.add_scaled(mat.setdefault(r, {}), c, row)
    return {r: row for r, row in mat.items() if row}


def corep_values(m, cor):
    """[[m(v^i_j)]]: the representation m on each entry of cor (rep_value)."""
    return [[rep_value(m, entry) for entry in entry_row] for entry_row in cor.entries]


def read_on_corep(m, v, transpose, name):
    """The MatRep on v's labels whose generator u^a_b maps to the matrix
    [m(v^i_j)[a][b]] at [j][i], or with transpose to [m(v^i_j)[b][a]] at
    [i][j]: a table of functionals of v read off m on v's entries."""
    gens = {}
    for i, mats in enumerate(corep_values(m, v), start=1):
        for j, mat in enumerate(mats, start=1):
            for a, row in mat.items():
                for b, val in row.items():
                    key, r, c = ((b, a), i, j) if transpose else ((a, b), j, i)
                    gens.setdefault(key, {}).setdefault(r, {})[c] = val
    return MatRep(m.N, range(1, v.dim + 1), gens, name)


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

    def word_values(self, degree):
        """Values on all words of degree <= degree, as {word: value}; words
        with value exactly zero are omitted."""
        return word_values([self], degree)[0]

    def __repr__(self):
        return f"Functional[{self.label or len(self.terms)} terms]"


def blocks(fs):
    """[(rep, rows, reads)]: the rows of each rep grouped by what the family
    fs reads on them, in order of first appearance.  reads maps the index k
    of each functional that reads a row to its [(col, coeff), ...] there,
    and the rows of one block have identical reads, so that
    fs[k](w) = sum over blocks of (x rep(w)) . (sum coeff e_col), x the sum
    of the block's rows: the rows (k, k) that l(v^i_j) reads in mrep(v)
    form one block.  Every reader of a family goes through these blocks."""
    reads = {}
    for k, f in enumerate(fs):
        for rep, r, c, co in f.terms:
            reads.setdefault((rep, r), {}).setdefault(k, []).append((c, co))
    out = {}
    for (rep, r), by_f in reads.items():
        key = frozenset((k, c, co) for k, terms in by_f.items() for c, co in terms)
        out.setdefault((rep, key), (rep, [], by_f))[1].append(r)
    return list(out.values())


def word_values(fs, degree):
    """Values of each functional in fs on all words of degree <= degree, as
    one {word: value} dict per functional (exact zeros omitted).  One
    traversal per block, started at the sum of its rows, serves every
    functional that reads the block."""
    out = [{} for _ in fs]
    for rep, rows, reads in blocks(fs):
        read = dict.fromkeys(c for terms in reads.values() for c, _ in terms)
        cols = column_values(rep, dict.fromkeys(rows, ONE), degree, read)
        for k, terms in reads.items():
            for c, co in terms:
                linalg.add_scaled(out[k], co, cols[c])
    return out


def automaton(*fs):
    """(x0, ys, gens) with fs[i](w) = (x0 rho(w)) . ys[i] for every word w:
    rho is the direct sum of one copy of a rep per block (blocks), and gens
    {generator: matrix} its values, over the labels (block, rep label); x0
    is the sum of every block's rows."""
    x0, ys, gens = {}, [{} for _ in fs], {}
    for k, (rep, rows, reads) in enumerate(blocks(fs)):
        for r in rows:
            x0[(k, r)] = ONE
        for i, terms in reads.items():
            for c, co in terms:
                ys[i][(k, c)] = co
        for gen, m in rep.gens.items():
            block = gens.setdefault(gen, {})
            for a, row in m.items():
                block[(k, a)] = {(k, b): v for b, v in row.items()}
    return x0, ys, gens


class ReachableSpan:
    """The layered closure of start under mats.  grow() takes the states
    of the last length one word further, times each matrix of mats, and
    keeps a state when it is independent of start and of every state kept
    before it.  start, when nonzero, and the states kept up to length t are
    then a basis of the span of start m_1 ... m_s over s <= t."""

    def __init__(self, start, mats):
        self.mats = mats
        self.basis, self.layer, self.length = [], [start], 0
        linalg.extend(self.basis, start)

    def grow(self):
        """Yield the kept states of the next length as they are found; the
        span is grown only once this is exhausted."""
        last, self.layer = self.layer, []
        self.length += 1
        for x in last:
            for m in self.mats:
                z = linalg.vec_mat(x, m)
                if linalg.extend(self.basis, z):
                    self.layer.append(z)
                    yield z


def column_values(rep, x0, degree, cols):
    """{col: {word: (x0 rep(word))[col]}} for each col in cols over the
    words of degree <= degree, exact zeros omitted: one row per column,
    indexed by words, each present, perhaps empty.  This is the one walk of
    the word tree; every word-indexed row is read off it."""
    out = {c: {} for c in cols}
    for word, state in iter_word_states(rep, x0, degree):
        for c, v in state.items():
            row = out.get(c)
            if row is not None:
                row[word] = v
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


def eps_word_values(degree, N, zeta=TRIVIAL):
    """The character eps_zeta as a word-value dict: zeta^|w| on the words
    with all i = j, and so 1 there for the counit (zeta = 1)."""
    out = {(): ONE}
    diag = [(i, i) for i in range(1, N + 1)]
    layer = [()]
    for t in range(1, degree + 1):
        v = zeta.power_value(t)
        layer = [w + (g,) for w in layer for g in diag]
        for w in layer:
            out[w] = v
    return out


def word_rank(rows):
    """Exact rank of word-indexed rows ({word: value}), certified on the
    shortest words that suffice.  Dropping columns can only lower a rank,
    so when the n nonzero rows cut to the words of length <= t have rank n,
    n is the rank.  Cuts t = 0, 1, ... below the longest word are tried in
    turn, each only if its rows are nonzero and span at least n columns;
    when none reaches n, the full rows are eliminated."""
    rows = [r for r in rows if r]
    longest = max((len(w) for r in rows for w in r), default=0)
    for t in range(longest):
        cut = [{w: v for w, v in r.items() if len(w) <= t} for r in rows]
        if all(cut) and len(set().union(*cut)) >= len(rows) == linalg.rank(cut):
            return len(rows)
    return linalg.rank(rows)


def span_ranks(*row_sets):
    """([word_rank of each row set], word_rank of their union): the data of
    a span equality (all equal) or of an independence certificate (union =
    sum)."""
    union = [r for rows in row_sets for r in rows]
    return [word_rank(rows) for rows in row_sets], word_rank(union)


# ---------------------------------------------------------------------------
# the per-configuration workspace
# ---------------------------------------------------------------------------

class Workspace:
    """One quantum group: R-matrix, corepresentation registry and one keyed
    cache (_cached) of the antipode, the projectors, minors and
    representations."""

    def __init__(self, config, d_max=D_MAX):
        last = START_DEGREE + STABILITY_WINDOW - 1
        if d_max < last:
            raise ValueError(
                f"d_max {d_max} is below the last degree {last} of the first"
                " stability window, so no rank could ever stabilize"
            )
        self.config = config
        self.N = config.N
        self.d_max = d_max
        self.rdata = rmat.build_r(config)
        self.lplus = lplus(config, self.rdata)
        self.lminus = lminus(config, self.rdata)
        self._eps = eps_rep(config)
        self._coreps = {}
        self._cache = {}

    def _cached(self, key, build, *args):
        """The value stored under key, made by build(*args) on first use."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build(*args)
            return value

    # -- low-level reps ------------------------------------------------------

    def eps_functional(self):
        return Functional([(self._eps, 0, 0, ONE)], "eps")

    def eps_zeta(self, zeta):
        """The character eps_zeta as a Functional: the counit for zeta = 1,
        else the entry of an eps_zeta_rep cached per zeta."""
        if zeta.is_one():
            return self.eps_functional()
        rep = self._cached(("eps", zeta, zeta.ring.order), eps_zeta_rep, self.config, zeta)
        return Functional([(rep, 0, 0, ONE)], rep.name)

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
        return self._cached(("conv", frep, grep), conv, frep, grep)

    def lplus_entry(self, i, j):
        return Functional([(self.lplus, i, j, ONE)], f"l+[{i},{j}]")

    def lminus_entry(self, i, j):
        return Functional([(self.lminus, i, j, ONE)], f"l-[{i},{j}]")

    # -- the factorizability form ---------------------------------------------

    def q_form(self, a, b):
        """q(a (x) b) = r(b1 (x) a1) r(a2 (x) b2), the factorizability form.
        r(w (x) f) for words w and f is l+[u^{(x)|f|}] at f's index pairs,
        read on w, and the counit of w when f is empty."""
        def r(w, f):
            if not f:
                return ONE if all(i == j for i, j in w) else ZERO
            pos = _tensor_position_map(self.N, len(f))
            rep = self.l_corep(self.tensor_power_corep(len(f)))
            return rep.entry_on_word(pos[tuple(i for i, _ in f)], pos[tuple(j for _, j in f)], w)

        total = ZERO
        da = coordalg.coproduct(a, self.N)
        db = coordalg.coproduct(b, self.N)
        for (a1, a2), ca in da.items():
            for (b1, b2), cb in db.items():
                v1 = r(b1, a1)
                if v1.is_zero():
                    continue
                v2 = r(a2, b2)
                if v2.is_zero():
                    continue
                total = total + ca * cb * v1 * v2
        return total

    # -- dual separation ------------------------------------------------------

    def separating_reps(self, length=None):
        """All convolution words over {L+, L-} up to length (default
        SEPARATION_LENGTH), as (word length, representation) pairs,
        shortest first."""
        length = positive_or_default(length, SEPARATION_LENGTH, "separation length")
        reps = [(0, self._eps)]
        layer = [None]
        for l in range(1, length + 1):
            layer = [
                base if rep is None else self._conv(rep, base)
                for rep in layer
                for base in (self.lplus, self.lminus)
            ]
            reps += [(l, rep) for rep in layer]
        return reps

    def separated_equal(self, a, b, length=None):
        """Decide a = b in O(G_q) by evaluating the separating family on
        a - b.  False is a certain inequality, witnessed at the returned
        family length; True is certified only up to that length."""
        length = positive_or_default(length, SEPARATION_LENGTH, "separation length")
        diff = a - b
        if diff.is_zero():
            return True, 0
        for l, rep in self.separating_reps(length):
            if rep_value(rep, diff):
                return False, l
        return True, length

    # -- antipode (oracle-pinned) ---------------------------------------------

    def antipode_table(self):
        """Generator antipode table, selected solely by the antipode axiom
        checked under dual separation."""
        def select():
            winners = [t for t in self._antipode_candidates() if self._antipode_axiom_holds(t)]
            if not winners:
                raise AntipodeFailureError("no antipode candidate passes the axiom oracle")
            if len(winners) > 1:
                raise AntipodeFailureError("antipode candidate not unique")
            return winners[0]
        return self._cached("antipode", select)

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
        """sum_k S(u^i_k) u^k_j = delta_ij for all i, j, decided by dual
        separation.  The mirrored identity sum_k u^i_k S(u^k_j) = delta_ij
        is not checked: it never changes a verdict.  A separating
        representation rho of dimension d is multiplicative on words, so
        the checked identity says A B = I for the square N*d block matrices
        A = [rho(S(u^i_k))] and B = [rho(u^k_j)] over a field; then B A = I,
        which is the mirrored identity under rho."""
        N = self.N
        unit = CoordElem.unit()
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                left = CoordElem()
                for k in range(1, N + 1):
                    left = left + tab[i - 1][k - 1] * CoordElem.generator(k, j)
                if not self.separated_equal(left, unit if i == j else CoordElem())[0]:
                    return False
        return True

    # -- exterior algebra, minors, coreps --------------------------------------

    def spectral_projectors(self):
        return self._cached("projectors", rmat.spectral_projectors, self.rdata)

    def exterior_relations(self):
        return self._cached("exterior", lambda: coordalg.exterior_relations(
            self.rdata, self.spectral_projectors()
        ))

    def minor_table(self, k):
        return self._cached(("minors", k), lambda: coordalg.quantum_minors(
            self.N, k, self.exterior_relations() if k > 1 else None
        ))

    def corep(self, descriptor):
        """Parse a corepresentation descriptor (_parse), check its dimension
        and register it and every node below it (_register).

        Grammar: 1 | u | uc | tensor(D,D) | dsum(D,D) | minor:k |
        proj:sym(tensor(u,u)) | proj:anti(tensor(u,u))
        """
        desc = descriptor.replace(" ", "")
        cor = self._coreps.get(desc)
        if cor is None:
            tree = _parse(desc, self.config, whole=descriptor)
            if tree[2] > MAX_COREP_DIM:
                raise UnsupportedConfigError(
                    f"corepresentation descriptor has dimension {tree[2]} > {MAX_COREP_DIM}"
                )
            cor = self._register(tree)
        return cor

    def _register(self, node):
        """The corepresentation of a parse-tree node, built after the nodes
        below it and registered under its text.  The comatrix identity holds
        on the nose for 1, u, tensors and sums; uc, minor:k and proj:* are
        registered only after _check_comatrix."""
        text, head, dim, arg = node
        cor = self._coreps.get(text)
        if cor is not None:
            return cor
        N = self.N
        if head == "1":
            cor = coordalg.trivial_corep()
        elif head == "u":
            cor = coordalg.fundamental_corep(N)
        elif head in ("tensor", "dsum"):
            a, b = (self._register(x) for x in arg)
            cor = coordalg.tensor(a, b) if head == "tensor" else coordalg.direct_sum(a, b)
        elif head == "uc":
            cor = coordalg.contragredient(self._register(*arg), self.antipode_table())
        elif head == "minor":
            cor = coordalg.minor_corep(N, arg, None if arg == 1 else self.exterior_relations())
        else:
            parent = self._register(*arg)
            pmat = rmat.projector_of_rank(self.spectral_projectors(), dim)
            if pmat is None:
                raise UnsupportedConfigError(
                    f"{text!r}: no spectral projector of rank {dim} on {self.config}"
                )
            labels = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
            cor = coordalg.projected_corep(parent, pmat, labels, text)
        if head not in ("1", "u", "tensor", "dsum"):
            self._check_comatrix(cor)
        self._coreps[text] = cor
        return cor

    def _check_comatrix(self, cor):
        """Raise NotInvariantError unless Delta(v^i_j) = sum_k v^i_k (x) v^k_j
        for every entry, decided under the separating family.

        Write D_ij = Delta(v^i_j) - sum_k v^i_k (x) v^k_j, a sum of
        c w1 (x) w2, and V_m = [m(v^i_j)] for a separating representation
        m.  Since (m1 (x) m2) Delta = m1 * m2 on the free algebra, the
        condition (m1 (x) m2)(D_ij) = 0 for all i, j reads
        P(m1, m2): V_{m1*m2} = V_{m1} . V_{m2}, where . is the block product
        with tensor-product entries.  The defining condition is P on every
        pair with |m1|, |m2| <= 2.  Convolution is associative (the free
        coproduct is coassociative) and so is ., so that set is equivalent to
        {m1 a letter eps, L+ or L-, |m2| <= SEPARATION_LENGTH = 3}:
        P(a*b, m2) for letters a, b follows from P(a, b*m2), P(b, m2) and
        P(a, b), as V_{a*b*m2} = V_a . V_{b*m2} = V_a . V_b . V_{m2} =
        V_{a*b} . V_{m2}; conversely P(a, b*c) with |c| = 2 follows from
        P(a*b, c), P(a, b) and P(b, c) the same way.  The mirrored set
        (|m1| <= 3, m2 a letter) is equivalent too.  For the letter eps,
        V_eps is the counit table, so P(eps, m2) holds for every m2 when
        that table is the identity, which is checked first
        (coordalg.check_counit, as a Corep is); only L+ and L- are walked.

        So each entry (r, c) of each letter m is applied to one leg of every
        D_ij, leaving an element of the other leg, without forming D_ij in
        F (x) F (_comatrix_legs).  On the first side, (m (x) id)Delta(w) for
        each word w of v^i_j is walked one generator at a time over the
        states (r, current column, second-leg prefix), exact zeros dropped
        (_letter_walk, cached per letter, word and side), and minus
        sum_k m(v^i_k)[r, c] v^k_j is added from one letter matrix m(v^i_k)
        per letter and entry (_entry_matrices); the second side is the
        mirror image.  If every such leg is exactly zero on the first side,
        or else on the second, the identity holds.  Otherwise the first
        side's nonzero legs must vanish under separated_equal at
        SEPARATION_LENGTH.  The side is chosen once for all entries, since
        the proof sums over k across them."""
        coordalg.check_counit(cor.entries, cor.label)
        letters = [(m, _entry_matrices(m, cor)) for m in (self.lplus, self.lminus)]
        walks = {}
        for side in (0, 1):
            if not any(_comatrix_legs(cor, letters, side, walks)):
                return
        zero = CoordElem()
        for i, j, leg in _comatrix_legs(cor, letters, 0, walks):
            if not self.separated_equal(CoordElem(leg), zero)[0]:
                raise coordalg.NotInvariantError(
                    f"entry ({i},{j}) of {cor.label} fails the comatrix check"
                )

    def tensor_power_corep(self, k):
        desc = "u"
        for _ in range(k - 1):
            desc = f"tensor(u,{desc})"
        return self.corep(desc)

    # -- L-functionals of arbitrary coreps --------------------------------------

    def l_corep(self, v):
        """L+[v], the MatRep of l+[v]^i_j = r(. (x) v^i_j).  rbar = r o (S (x)
        id) and r o (S (x) S) = r give r(x (x) y) = rbar(x (x) S y), so
        l+[v]^i_j(u^a_b) = l-^a_b(S v^i_j) = S(L-)(v^i_j)[b][a].  It and the
        representations built on it are cached per Corep object, not per
        label: two coreps may share a label."""
        return self._cached(("L+", v), lambda: read_on_corep(
            self._antipode(self.lminus), v, True, f"L+[{v.label}]"
        ))

    def antipode_l_corep(self, base, v):
        """S(base[v]) for base L+ or L-, read off the other one on v's
        entries with no inversion: S(L-[v])(u^a_b)[j][i] =
        rbar(v^i_j (x) S u^a_b) = r(v^i_j (x) u^a_b) = L+(v^i_j)[a][b], and
        S(L+[v])(u^a_b)[j][i] = r(S u^a_b (x) v^i_j) = L-(v^i_j)[a][b]."""
        other = self.lplus if base is self.lminus else self.lminus
        return read_on_corep(other, v, False, f"S({base.name}[{v.label}])")

    def mrep(self, v):
        """conv(S(L-[v]), L+[v]): houses all l(v^i_j)."""
        return self._cached(("m", v), lambda: conv(
            self.antipode_l_corep(self.lminus, v), self.l_corep(v), name=f"M[{v.label}]"
        ))

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
        """tau(-2 lambda) = prod_k ((l+^1_1 ... l+^k_k)^2)^{m_k}, as the 1x1
        representation u^i_j -> delta_ij prod_{k in seq} l+^k_k(u^i_i).

        Each l+^k_k is then a character: when every L+ generator value is
        upper triangular, the diagonal entry of a product of them is the
        product of their diagonal entries, and when only diagonal
        generators have diagonal entries, l+^k_k vanishes off them.  Both
        facts are checked on every call; NotACharacterError is raised when
        one fails."""
        seq = []
        for k, mult in enumerate(weight.m, start=1):
            seq.extend(list(range(1, k + 1)) * (2 * mult))
        for (i, j), m in self.lplus.gens.items():
            for a, row in m.items():
                for b, v in row.items():
                    if not v.is_zero() and (a > b or (a == b and i != j)):
                        raise NotACharacterError(
                            f"L+ has entry ({a},{b}) on u^{i}_{j}, so"
                            f" tau(-2*{weight}) is not a product of characters"
                        )
        gens = {}
        for i in range(1, self.N + 1):
            diag = self.lplus.gen_matrix(i, i)
            v = ONE
            for k in seq:
                v = v * diag.get(k, {}).get(k, ZERO)
            if not v.is_zero():
                gens[(i, i)] = {0: {0: v}}
        rep = MatRep(self.N, [0], gens, f"tau(-2*{weight})")
        return Functional([(rep, 0, 0, ONE)], rep.name)

    # -- adjoint action -----------------------------------------------------------

    def _antipode(self, rep):
        """antipode_rep(rep), cached per rep."""
        return self._cached(("S", rep), antipode_rep, rep, self.config)

    def _ad_rep(self, frep, xrep):
        """conv(S(frep), conv(xrep, frep)), the MatRep that houses ad_R(f)x
        for f inside frep and x inside xrep (cached)."""
        return self._cached(("ad", frep, xrep), lambda: conv(
            self._antipode(frep), self._conv(xrep, frep)
        ))

    # -- evaluation matrices, ranks, equality --------------------------------------

    def stabilized_rank(self, rows_at):
        """Escalate the evaluation degree from START_DEGREE until the rank of
        rows_at(degree) is constant over STABILITY_WINDOW degrees, up to
        d_max; returns (rank, certified_degree).

        rows_at(d) must give the same n word rows, in the same order, at
        every degree, and cut to the words shorter than d they must be
        rows_at(d - 1).  The rank then grows one word length at a time.
        With R_t the rows cut to the words of length <= t and K a basis of
        the combinations of the n rows that vanish on R_{t-1} (the identity
        at t = 0), rank R_t = rank R_{t-1} + rank of the images K R cut to
        the words of length t.  The images that depend on those before
        them, with their tracked coefficients, are the next K, so each word
        length is eliminated once.  An empty K means rank n at every higher
        degree, and rows_at is not called again."""
        rows = rows_at(START_DEGREE)
        n = len(rows)
        ranks, rank, t, kernel = [], 0, 0, [{i: ONE} for i in range(n)]
        for d in range(START_DEGREE, self.d_max + 1):
            if d > START_DEGREE and kernel:
                rows = rows_at(d)
                if len(rows) != n:
                    raise ValueError(
                        f"rows_at({d}) gave {len(rows)} rows, not the {n} of "
                        f"degree {START_DEGREE}")
            while kernel and t <= d:
                cut = [{w: v for w, v in row.items() if len(w) == t} for row in rows]
                basis, next_kernel = [], []
                for k in kernel:
                    image = {}
                    for i, c in k.items():
                        linalg.add_scaled(image, c, cut[i])
                    dep = linalg.extend_tracked(basis, image, k)
                    if dep is not None:
                        next_kernel.append(dep)
                rank += len(basis)
                kernel = next_kernel
                t += 1
            ranks.append(rank)
            if len(ranks) >= STABILITY_WINDOW and len(set(ranks[-STABILITY_WINDOW:])) == 1:
                return ranks[-1], d
        raise RankUnstableError(
            f"rank did not stabilize up to degree {self.d_max}: {ranks}"
        )

    def functional_equal(self, f, g, degree):
        """Equality of functionals on all words up to degree, decided on the
        backward reachable span of f - g.  f - g reads
        w -> x0 rho(w) . y (automaton), which is x0 . rho(w) y: the states
        rho(w) y, grown from y by the transposed generators
        (ReachableSpan), are read through x0.  Every state of length t is a
        combination of the states kept up to length t, so f - g vanishes on
        the words of degree <= t once those kept states read 0, and a length
        that keeps nothing closes the span: f - g then vanishes on every
        word.  The span has read every word shorter than its length, so a
        nonzero value at length t makes t the least degree of a word where
        f and g differ.  On the minor-tau pairs y reads the highest-weight
        entry of a triangular L-functional, an eigenvector of every
        generator, so the span keeps y alone.  False is definitive and
        comes with that least degree; True certifies up to degree."""
        degree = positive_or_default(degree, None, "degree")
        x0, (y,), gens = automaton(f - g)
        if not linalg.dot(x0, y).is_zero():
            return False, 0
        span = ReachableSpan(y, [linalg.mat_transpose(gens[gen]) for gen in sorted(gens)])
        while span.layer and span.length < degree:
            if any(not linalg.dot(z, x0).is_zero() for z in span.grow()):
                return False, span.length
        return True, degree

    def coideal_check(self, basis, degree=None, gauge=TRIVIAL):
        """Bicovariance certificate for span(basis) + C eps on words of
        degree <= degree: the conjunction of _right_coideal (right translates
        stay in the span) and _ad_invariant (ad_R by every l+/l- generator
        entry maps the basis into the span).  Returns (ok, degree).

        The basis is given in the gauge of the root of unity `gauge`: each
        functional is eps_{gauge^-1} * X for the X it stands for, and eps
        stands as eps_{gauge^-1}.  That convolution multiplies the value on
        a word w by gauge^-|w|, an invertible diagonal map, so it keeps
        every span membership.  eps_{gauge^-1} is a central character, so
        ad_R(f) commutes with it, and it maps the translate X(. g) to
        gauge times the translate of the gauged X.  Both certificates
        therefore decide the same in every gauge; the default is the
        identity.

        The terms of a basis functional housed in eps_{gauge^-1} itself are
        dropped first.  They are multiples of eps, which is in the span, and
        ad_R(f) and the translates map eps_{gauge^-1} to multiples of
        itself, so neither verdict changes.  In the gauge of zeta the basis
        of X_zeta(v) is then l(v^i_j) over Q(p), and the eps row is the one
        cyclotomic row."""
        degree = positive_or_default(degree, CHECK_DEGREE, "degree")
        inv = gauge.inverse()
        eps_rep = self.eps_zeta(inv).terms[0][0]
        basis = [Functional([t for t in x.terms if t[0] is not eps_rep], x.label) for x in basis]
        rows = word_values(basis, degree) + [eps_word_values(degree, self.N, inv)]
        ok = self._right_coideal(rows, degree) and self._ad_invariant(basis, rows, degree)
        return ok, degree

    def _right_coideal(self, rows, degree):
        """(i) For every basis row X (all rows but the last, eps) and every
        generator g, X(. g) on words of degree <= degree - 1 lies in the
        span of the rows truncated to that degree.  X(. g)(w) = X(w g), so
        the translates are read off the rows themselves.  This decides every
        translate X(. b) on words of degree <= degree - |b|, by induction on
        |b|: X(. g b) = X(. b)(. g) and eps(. g) = eps(g) eps."""
        span = linalg.echelon(
            [{w: v for w, v in r.items() if len(w) < degree} for r in rows]
        )
        for row in rows[:-1]:
            translates = {}
            for wg, v in row.items():
                if wg:
                    translates.setdefault(wg[-1], {})[wg[:-1]] = v
            if not all(linalg.in_row_space(span, t) for t in translates.values()):
                return False
        return True

    def _ad_invariant(self, basis, rows, degree):
        """(ii) ad_R(f) X lies in the span of rows for every l+/l- generator
        entry f and every basis functional X.  For f = frep^a_b, ad_R(f) X =
        S(f_(1)) X f_(2) is the Functional on _ad_rep(frep, X's rep) with
        the terms ((k, (r, k)), (a, (c, b))) over k for each term (r, c) of
        X, read for every f and X in one word_values call per sign."""
        span = linalg.echelon(rows)
        idx = range(1, self.N + 1)
        for frep in (self.lplus, self.lminus):
            ads = [
                Functional([
                    (self._ad_rep(frep, xrep), (k, (xr, k)), (a, (xc, b)), xco)
                    for xrep, xr, xc, xco in x.terms for k in frep.labels
                ])
                for a in idx for b in idx for x in basis
            ]
            if not all(linalg.in_row_space(span, row) for row in word_values(ads, degree)):
                return False
        return True


def _tensor_position_map(N, k):
    """Multi-index -> 1-based position in the k-fold tensor power of u.

    Matches the entry layout of coordalg.tensor built as u (x) (u (x) ...).
    """
    out = {}
    for pos, multi in enumerate(product(range(1, N + 1), repeat=k)):
        out[multi] = pos + 1
    return out


def _comatrix_legs(cor, letters, side, walks):
    """Yield (i, j, leg) for every nonzero leg that an entry (r, c) of a
    letter m leaves when applied to tensor leg `side` (0 or 1) of
    D_ij = Delta(v^i_j) - sum_k v^i_k (x) v^k_j: the {word: scalar} map of
    the other leg.  letters holds (m, _entry_matrices(m, cor)) pairs, and
    walks caches _letter_walk across calls on one corep.

    Where the identity holds only modulo the defining ideal (proj:*), little
    of Delta(v^i_j) cancels against the sum, so the second side is walked in
    full and both parts reach every leg term by term.  They are accumulated
    into one flat {(r, c, word): scalar} map, from entry matrices negated
    once, rather than leg by leg."""
    dim, entries = cor.dim, cor.entries
    for i in range(dim):
        for j in range(dim):
            for m, mats in letters:
                acc = {}
                for w, c in entries[i][j].terms.items():
                    one = c.is_one()
                    for key, v in _letter_walk(m, w, side, walks).items():
                        t = v if one else c * v
                        s = acc.get(key)
                        acc[key] = t if s is None else s + t
                for k in range(dim):
                    if side == 0:
                        mat, other = mats[i][k], entries[k][j].terms
                    else:
                        mat, other = mats[k][j], entries[i][k].terms
                    for r, col, v in mat:
                        for o, x in other.items():
                            key = (r, col, o)
                            t = v * x
                            s = acc.get(key)
                            acc[key] = t if s is None else s + t
                legs = {}
                for (r, col, o), v in acc.items():
                    if not v.is_zero():
                        legs.setdefault((r, col), {})[o] = v
                for leg in legs.values():
                    yield i, j, leg


def _letter_walk(m, w, side, walks):
    """(m (x) id)Delta(w) for side 0, or (id (x) m)Delta(w) for side 1, as
    {(r, c, word): scalar}.  For w = u^{i1}_{j1} ... u^{ik}_{jk} and side 0
    the entry (r, c) is sum_s m(u^{i1}_{s1} ... u^{ik}_{sk})[r, c]
    u^{s1}_{j1} ... u^{sk}_{jk}.  It is walked one generator at a time over
    the states (r, current column, other-leg prefix), exact zeros dropped;
    eps is diagonal and L+, L- are triangular, so most of the N^k splits
    die early.  Each prefix is cached in walks per (letter, side)."""
    key = (m, side, w)
    out = walks.get(key)
    if out is not None:
        return out
    if not w:
        out = {(r, r, ()): ONE for r in m.labels}
    else:
        i, j = w[-1]
        steps = []
        for s in range(1, m.N + 1):
            gen = m.gen_matrix(i, s) if side == 0 else m.gen_matrix(s, j)
            if gen:
                steps.append((gen, (s, j) if side == 0 else (i, s)))
        out = {}
        for (r, col, o), c in _letter_walk(m, w[:-1], side, walks).items():
            for gen, g in steps:
                row = gen.get(col)
                if row:
                    o2 = o + (g,)
                    for col2, v in row.items():
                        nkey = (r, col2, o2)
                        t = v if c is ONE else c * v
                        s = out.get(nkey)
                        out[nkey] = t if s is None else s + t
        out = {k: v for k, v in out.items() if not v.is_zero()}
    walks[key] = out
    return out


def _entry_matrices(m, cor):
    """[[-m(v^i_k)]] over the corep's entries, each matrix a list of its
    nonzero (r, c, value) triples."""
    return [
        [[(r, c, -v) for r, row in mat.items() for c, v in row.items()] for mat in mats]
        for mats in corep_values(m, cor)
    ]


# Descriptor bounds, checked before anything is built.  Every descriptor of
# the CLI, the tests and the benchmark nests at most 5 levels and has
# dimension at most 27; deeper nesting would exhaust the parser's recursion,
# and the dimension of nested tensor products grows exponentially.
MAX_DESCRIPTOR_DEPTH = 32
MAX_COREP_DIM = 256


def minor_degrees(config):
    """The k of the minor:k that are built: 1..rank on SL_q(N), and only 1
    on Sp_q(2n), whose exterior relations coordalg.exterior_relations does
    not derive."""
    return range(1, (config.rank if config.series == "A" else 1) + 1)


def _parse(desc, config, depth=0, whole=None):
    """The parse tree of a descriptor without spaces, nested in depth
    parentheses: a node (text, head, dim, arg).  head is 1, u, uc, minor,
    proj:sym, proj:anti, tensor or dsum; arg is k for minor:k and otherwise
    the tuple of child nodes: u for uc, tensor(u,u) for proj:*, the two
    factors or summands for tensor and dsum, none for 1 and u.  dim is the
    dimension of the corepresentation that Workspace._register builds.

    Every check that the text alone decides is made here: text outside the
    grammar is a ValueError naming whole (the descriptor as given), nesting
    deeper than MAX_DESCRIPTOR_DEPTH an UnsupportedConfigError, and so is a
    projection of anything but tensor(u,u); a minor:k with k not an integer
    in minor_degrees(config) an InvalidDegreeError."""
    N = config.N
    if desc in ("1", "u"):
        return desc, desc, 1 if desc == "1" else N, ()
    if desc == "uc":
        return desc, desc, N, (_parse("u", config),)
    if desc.startswith("minor:"):
        field = desc[len("minor:"):]
        try:
            k = int(field)
        except ValueError:
            raise coordalg.InvalidDegreeError(
                f"minor degree must be an integer, got {field!r}"
            ) from None
        ks = minor_degrees(config)
        if k not in ks:
            raise coordalg.InvalidDegreeError(f"minor degree {k} out of range 1..{ks[-1]}")
        return desc, "minor", comb(N, k), k
    head, paren, body = desc.partition("(")
    if paren and body.endswith(")"):
        if depth >= MAX_DESCRIPTOR_DEPTH:
            raise UnsupportedConfigError(
                f"corepresentation descriptor nests deeper than {MAX_DESCRIPTOR_DEPTH} levels"
            )
        inner = body[:-1]
        if head.startswith("proj:"):
            arg = _parse(inner, config, depth + 1, whole)
            if head not in ("proj:sym", "proj:anti") or arg[0] != "tensor(u,u)":
                raise UnsupportedConfigError(
                    f"{desc!r}: sym/anti projections act on tensor(u,u) only"
                )
            dim = N * (N + 1) // 2 if head == "proj:sym" else N * (N - 1) // 2
            return desc, head, dim, (arg,)
        if head in ("tensor", "dsum"):
            level = 0
            for i, ch in enumerate(inner):
                level += (ch == "(") - (ch == ")")
                if ch == "," and level == 0:
                    a = _parse(inner[:i], config, depth + 1, whole)
                    b = _parse(inner[i + 1:], config, depth + 1, whole)
                    dim = a[2] * b[2] if head == "tensor" else a[2] + b[2]
                    return desc, head, dim, (a, b)
    raise ValueError(f"cannot parse corepresentation descriptor {whole or desc!r}")
