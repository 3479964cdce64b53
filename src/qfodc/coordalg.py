"""The coordinate algebra O(G_q) as a free word algebra with Hopf structure
on generators, the quantum exterior algebra, quantum minors and matrix
corepresentations, plus the classical Weyl dimension formula and the
Peter-Weyl counting oracle built on it.

Elements are formal linear combinations of words in the generators u^i_j;
no quotient is ever taken.  The defining relations of O(G_q) enter only
through the dual module: equality of two representatives is decided by
evaluating a separating family of functionals (dual.separated_equal), never
by rewriting.  The counit and coproduct, by contrast, are exact on
representatives.

A word is a tuple of (i, j) index pairs, 1-based; the empty tuple is the
unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .scalar import ONE, ZERO


class InvalidDegreeError(ValueError):
    pass


class NotInvariantError(ValueError):
    pass


# ---------------------------------------------------------------------------
# words and free-algebra elements
# ---------------------------------------------------------------------------

def word_str(w):
    if not w:
        return "1"
    return "*".join(f"u[{i},{j}]" for i, j in w)


class CoordElem:
    """Formal linear combination of words: {word: Scalar}, zero-free."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    @staticmethod
    def unit():
        return CoordElem({(): ONE})

    @staticmethod
    def generator(i, j):
        return CoordElem({((i, j),): ONE})

    @staticmethod
    def from_word(w, coeff=ONE):
        return CoordElem({tuple(w): coeff})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            if s is None:
                out[w] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
        return CoordElem(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CoordElem({w: -c for w, c in self.terms.items()})

    def scaled(self, k):
        if k.is_zero():
            return CoordElem()
        return CoordElem({w: k * c for w, c in self.terms.items()})

    def __mul__(self, other):
        """Concatenation-bilinear product in the free algebra."""
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                if s is None:
                    out[w] = c
                else:
                    out[w] = s + c
        return CoordElem(out)

    def counit(self):
        """The algebra character: a word maps to the product of deltas."""
        total = ZERO
        for w, c in self.terms.items():
            if all(i == j for i, j in w):
                total = total + c
        return total

    def __eq__(self, other):
        if not isinstance(other, CoordElem):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            parts.append(f"({self.terms[w]})*{word_str(w)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CoordElem({self})"


def coproduct_splits(w, N):
    """All comatrix splittings of a word: Delta(u^i_j) = u^i_k (x) u^k_j.

    Yields (top, bottom) word pairs; each carries coefficient 1, and a
    degree-m word has exactly N^m of them.
    """
    m = len(w)
    if m == 0:
        yield (), ()
        return
    for middle in product(range(1, N + 1), repeat=m):
        top = tuple((w[t][0], middle[t]) for t in range(m))
        bottom = tuple((middle[t], w[t][1]) for t in range(m))
        yield top, bottom


def coproduct(elem, N):
    """Delta on a CoordElem as a dict {(top, bottom): Scalar}."""
    out = {}
    for w, c in elem.terms.items():
        for top, bottom in coproduct_splits(w, N):
            key = (top, bottom)
            s = out.get(key)
            out[key] = c if s is None else s + c
    return {k: v for k, v in out.items() if not v.is_zero()}


def apply_antipode(elem, table):
    """Extend a generator antipode table as a linear anti-automorphism."""
    out = CoordElem()
    for w, c in elem.terms.items():
        acc = CoordElem.unit()
        for i, j in reversed(w):
            acc = acc * table[i - 1][j - 1]
        out = out + acc.scaled(c)
    return out


# ---------------------------------------------------------------------------
# quantum exterior algebra and minors
# ---------------------------------------------------------------------------

def exterior_relations(rdata, projectors):
    """Reordering coefficients of the quantum exterior algebra, derived from
    the braid antisymmetrizer so they cannot drift from the R convention.

    projectors are rmat.spectral_projectors(rdata).  Returns {(j, i): kappa}
    with j > i meaning y_j y_i = kappa * y_i y_j; squares y_i y_i are zero.
    A series only.
    """
    from . import rmat as _rmat

    if rdata.config.series != "A":
        raise InvalidDegreeError("exterior relations are derived for the A series only")
    # antisymmetrizer = projector of rank N(N-1)/2
    N = rdata.N
    target = N * (N - 1) // 2
    anti = _rmat.projector_of_rank(projectors, target)
    if anti is None:
        raise InvalidDegreeError("no antisymmetrizer projector of the expected rank")
    for row in anti.values():
        for i in range(1, N + 1):
            if (i, i) in row and not row[(i, i)].is_zero():
                raise InvalidDegreeError("antisymmetrizer does not kill e_ii")
    out = {}
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            # kernel vector of the antisymmetrizer inside the block
            # span{e_ij, e_ji}: alpha*e_ij + beta*e_ji with relation
            # y_i y_j * alpha + y_j y_i * beta = 0
            alpha = ONE - anti.get((i, j), {}).get((i, j), ZERO)
            beta = -anti.get((j, i), {}).get((i, j), ZERO)
            if beta.is_zero():
                raise InvalidDegreeError("degenerate exterior block")
            out[(j, i)] = -(alpha / beta)
    return out


def exterior_normal_form(indices, relations):
    """Straighten y_{b1}...y_{bk} to the increasing basis.

    Returns (coeff, sorted_tuple) or None when the monomial vanishes
    (repeated index).  For k <= 1 no relations are needed.
    """
    idx = list(indices)
    coeff = ONE
    # insertion sort, each adjacent swap picks up the reordering coefficient
    for t in range(1, len(idx)):
        s = t
        while s > 0 and idx[s - 1] >= idx[s]:
            if idx[s - 1] == idx[s]:
                return None
            coeff = coeff * relations[(idx[s - 1], idx[s])]
            idx[s - 1], idx[s] = idx[s], idx[s - 1]
            s -= 1
    return coeff, tuple(idx)


def quantum_minors(N, k, relations):
    """All quantum minors D^J_I of size k: expand the coaction of the
    exterior algebra on y_I and read coefficients in the y_J basis.

    Returns {(J, I): CoordElem} over increasing k-tuples J (rows / upper
    indices) and I (columns / lower indices).
    """
    if k < 0 or k > N:
        raise InvalidDegreeError(f"minor degree {k} out of range 0..{N}")
    if k > 1 and relations is None:
        raise InvalidDegreeError("exterior relations required for k > 1")
    from itertools import combinations

    out = {}
    for i_set in combinations(range(1, N + 1), k):
        for b in product(range(1, N + 1), repeat=k):
            nf = exterior_normal_form(b, relations) if k > 1 else (ONE, tuple(b))
            if nf is None:
                continue
            coeff, j_set = nf
            word = tuple((b[t], i_set[t]) for t in range(k))
            key = (j_set, i_set)
            cur = out.get(key)
            add = CoordElem.from_word(word, coeff)
            out[key] = add if cur is None else cur + add
    return out


# ---------------------------------------------------------------------------
# corepresentations
# ---------------------------------------------------------------------------

class Corep:
    """A matrix of CoordElems with exactly-checked counit table.

    The comatrix identity Delta(v^i_j) = v^i_k (x) v^k_j holds on the nose
    for words built from generators (trivial, fundamental, tensors) and only
    up to the defining ideal for minors and projected corepresentations;
    the workspace layer verifies the latter by dual separation.
    """

    def __init__(self, entries, label):
        self.entries = entries
        self.dim = len(entries)
        self.label = label
        check_counit(entries, label)

    def __str__(self):
        return f"Corep[{self.label}, dim {self.dim}]"

    __repr__ = __str__


def check_counit(entries, label):
    """Raise NotInvariantError unless the counit table [eps(v^i_j)] of the
    square matrix entries is the identity."""
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            eps = entry.counit()
            want = ONE if i == j else ZERO
            if eps != want:
                raise NotInvariantError(
                    f"counit of entry ({i},{j}) of {label} is {eps}, want {want}"
                )


def trivial_corep():
    return Corep([[CoordElem.unit()]], "1")


def fundamental_corep(N):
    entries = [[CoordElem.generator(i + 1, j + 1) for j in range(N)] for i in range(N)]
    return Corep(entries, "u")


def tensor(v, w):
    """Tensor product corepresentation, entries v^i_j * w^k_l."""
    dim = v.dim * w.dim
    entries = []
    for i in range(v.dim):
        for k in range(w.dim):
            row = []
            for j in range(v.dim):
                for l in range(w.dim):
                    row.append(v.entries[i][j] * w.entries[k][l])
            entries.append(row)
    return Corep(entries, f"tensor({v.label},{w.label})")


def direct_sum(v, w):
    dim = v.dim + w.dim
    zero = CoordElem()
    entries = [[zero for _ in range(dim)] for _ in range(dim)]
    for i in range(v.dim):
        for j in range(v.dim):
            entries[i][j] = v.entries[i][j]
    for i in range(w.dim):
        for j in range(w.dim):
            entries[v.dim + i][v.dim + j] = w.entries[i][j]
    return Corep(entries, f"dsum({v.label},{w.label})")


def contragredient(v, antipode_table):
    """Entries S(v^j_i)."""
    entries = [
        [apply_antipode(v.entries[j][i], antipode_table) for j in range(v.dim)]
        for i in range(v.dim)
    ]
    return Corep(entries, f"{v.label}c" if v.label == "u" else f"contr({v.label})")


def minor_corep(N, k, relations):
    """The (N choose k)-dimensional corepresentation on size-k minors."""
    from itertools import combinations

    minors = quantum_minors(N, k, relations)
    sets = list(combinations(range(1, N + 1), k))
    entries = [[minors[(ji, ii)] for ii in sets] for ji in sets]
    return Corep(entries, f"minor:{k}")


def projected_corep(parent, pmat, labels, label):
    """Compress a corepresentation by an exact idempotent.

    pmat is a sparse projector on `labels`, which must index the parent's
    basis in order.  The compressed entries are checked for the counit table
    exactly; the comatrix identity holds only modulo the defining ideal and
    is the workspace's to check (Workspace._check_comatrix).
    """
    from . import linalg

    if not linalg.mat_eq(linalg.mat_mul(pmat, pmat), pmat):
        raise NotInvariantError("projector is not idempotent")
    index = {l: t for t, l in enumerate(labels)}
    # image basis from the column echelon of P, back-substituted so that each
    # row is zero at every other pivot: the coordinates of x in im(P) are then
    # a plain component read-off at the pivots
    cols = {}
    for rl, row in pmat.items():
        for cl, v in row.items():
            cols.setdefault(cl, {})[rl] = v
    basis = linalg.echelon([cols[c] for c in sorted(cols)])
    for i in reversed(range(len(basis))):
        pc, row = basis[i]
        basis[i] = (pc, linalg.reduce_row(row, basis[i + 1:]))
    # compressed entry (a, b) = sum_t parent^{pivot_a}_t * B[t][b]; this is
    # one representative of the coacted image coordinate, valid because the
    # image is coinvariant modulo the defining ideal (Workspace._check_comatrix)
    entries = []
    for pivot, _ in basis:
        s = index[pivot]
        row = []
        for _, bvec in basis:
            acc = CoordElem()
            for t_lab, bv in bvec.items():
                acc = acc + parent.entries[s][index[t_lab]].scaled(bv)
            row.append(acc)
        entries.append(row)
    return Corep(entries, label)


# ---------------------------------------------------------------------------
# Young weights and the classical Weyl dimension formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YoungWeight:
    """Column multiplicities m_j >= 0, j = 1..n; the highest weight is
    sum_j m_j omega_j."""

    m: tuple

    def __post_init__(self):
        if any(x < 0 for x in self.m):
            raise ValueError("negative column multiplicity")

    @classmethod
    def fundamental(cls, k):
        """The frame of the fundamental weight omega_k: one column of height k."""
        return cls((0,) * (k - 1) + (1,))

    @property
    def trivial(self):
        return not any(self.m)

    def partition(self, n):
        """Row lengths lambda_1 >= lambda_2 >= ... >= lambda_n."""
        lam = []
        for i in range(1, n + 1):
            lam.append(sum(self.m[j - 1] for j in range(i, len(self.m) + 1)))
        return lam

    def __str__(self):
        if self.trivial:
            return "trivial"
        return "[" + ",".join(str(x) for x in self.m) + "]"


def weyl_dim(weight, config):
    """Classical Weyl dimension of the irreducible with this highest weight."""
    n = config.rank
    if len(weight.m) > n:
        raise ValueError(f"weight has more than {n} columns rows")
    lam = weight.partition(n)
    if config.series == "A":
        # work with N rows, lambda_N = 0
        N = config.N
        full = lam + [0]
        num = 1
        den = 1
        for i in range(N):
            for j in range(i + 1, N):
                num *= full[i] - full[j] + j - i
                den *= j - i
        assert num % den == 0
        return num // den
    # C series: l_i = lambda_i + n - i + 1 against rho_i = n - i + 1
    ell = [lam[i] + n - i for i in range(n)]
    rho = [n - i for i in range(n)]
    num = 1
    den = 1
    for i in range(n):
        num *= ell[i]
        den *= rho[i]
        for j in range(i + 1, n):
            num *= (ell[i] - ell[j]) * (ell[i] + ell[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# the Peter-Weyl rank oracle for factorizability
# ---------------------------------------------------------------------------

def _tensor_with_vector(config, frames):
    """Classical decomposition: frames of V(omega_1) (x) V(frame)."""
    n = config.rank
    out = set()
    for fr in frames:
        lam = fr.partition(n) + [0]
        # add a box in any row keeping a valid partition
        for i in range(len(lam)):
            nl = list(lam)
            nl[i] += 1
            if i > 0 and nl[i] > nl[i - 1]:
                continue
            if config.series == "A":
                if nl[-1]:  # strip full columns of height N
                    if all(x >= nl[-1] for x in nl):
                        base = nl[-1]
                        nl = [x - base for x in nl]
                if len([x for x in nl if x]) > n:
                    continue
                out.add(_partition_to_frame(nl[:n], n))
            else:
                if len([x for x in nl[:-1] if x]) > n or nl[-1]:
                    continue
                out.add(_partition_to_frame(nl[:n], n))
        if config.series == "C":
            # the symplectic vector representation also removes a box
            for i in range(len(lam)):
                nl = list(lam)
                nl[i] -= 1
                if nl[i] < 0 or (i + 1 < len(nl) and nl[i] < nl[i + 1]):
                    continue
                out.add(_partition_to_frame(nl[:n], n))
    return out


def _partition_to_frame(lam, n):
    m = [0] * n
    for i in range(n):
        cur = lam[i]
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        m[i] = cur - nxt
    while m and not m[-1]:
        m.pop()
    return YoungWeight(tuple(m))


def peter_weyl_rank(config, degree):
    """Independent oracle: the rank of the factorizability Gram matrix on
    words of degree <= degree equals sum (dim V(lambda))^2 over the frames
    appearing in the tensor powers u^{(x) m}, m <= degree (classical
    branching, which the quantum case matches)."""
    frames = {YoungWeight(())}
    layer = {YoungWeight(())}
    for _ in range(degree):
        layer = _tensor_with_vector(config, layer)
        frames |= layer
    return sum(weyl_dim(fr, config) ** 2 for fr in frames)
