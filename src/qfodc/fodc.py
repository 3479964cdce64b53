"""Bicovariant first-order differential calculi Gamma_zeta(v): quantum Lie
algebras, inner differentials, central elements, direct sums, the
classification report and the verification claims (CLAIMS).

A calculus is built from a registered corepresentation v and an admissible
twist character zeta.  Its quantum Lie algebra is spanned by the
functionals X_ij = eps_zeta * l(v^i_j) - delta_ij * eps; the calculus is
inner by construction, the differential being commutation with the
biinvariant element theta = sum_i theta_ii of the free bimodule on the
m^2 left-invariant forms.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass

from . import coordalg, dual, linalg
from .coordalg import CoordElem, YoungWeight
from .cyclotomic import TRIVIAL, Zeta, all_admissible
from .dual import Functional, eps_word_values
# iter_word_states is not used here: the benchmark's tracer self-test
# (perfbench/tests) checks that the tracer rebinds this alias
from .dual import iter_word_states  # noqa: F401
from .scalar import MINUS_ONE, ONE, ZERO, UnsupportedConfigError


class NotCentralError(ValueError):
    pass


class NotDirectError(ValueError):
    pass


# ---------------------------------------------------------------------------
# quantum Lie algebras
# ---------------------------------------------------------------------------

def twisted(ws, zeta, f):
    """eps_zeta * f, housed in the conv of eps_zeta's 1x1 representation
    with f's; f itself when zeta = 1."""
    return f if zeta.is_one() else ws.convolve(ws.eps_zeta(zeta), f)


def lie_rows(ws, v, zeta, degree, gauge=TRIVIAL):
    """Evaluation rows of all X_ij on words of degree <= degree, in the
    gauge of `gauge`: the rows of eps_{gauge^-1} * X_ij, whose value on a
    word w is gauge^-|w| X_ij(w).  The default gauge 1 gives the X_ij.

    One base-field traversal of mrep(v) serves every X_ij: its column rows
    are graded in place by (zeta / gauge)^|w|, with no multiply on the
    lengths where that factor is one, and eps_{gauge^-1} is subtracted on
    the diagonal.  In the gauge of zeta the rows are those of
    l(v^i_j) - delta_ij eps_{zeta^-1}: over Q(p) but for the subtracted
    character.  Returns {(i, j): {word: value}} with 0-based entry indices.
    """
    x0 = {(k, k): ONE for k in range(1, v.dim + 1)}
    entries = [(i, j) for i in range(1, v.dim + 1) for j in range(1, v.dim + 1)]
    cols = dual.column_values(ws.mrep(v), x0, degree, entries)
    grade = zeta / gauge
    zpow = [grade.power_value(t) for t in range(degree + 1)]
    eps_tab = eps_word_values(degree, ws.N, gauge.inverse())
    rows = {}
    for i, j in entries:
        row = rows[(i - 1, j - 1)] = cols[(i, j)]
        for w, val in row.items():
            z = zpow[len(w)]
            if z is not ONE:
                row[w] = z * val
        if i == j:
            linalg.add_scaled(row, MINUS_ONE, eps_tab)
    return rows


class QuantumLieAlgebra:
    """Span of the functionals X_ij = eps_zeta l(v^i_j) - delta_ij eps, held
    in the gauge of `gauge`: basis and rows are those of eps_{gauge^-1} *
    X_ij (lie_rows).  No rank, span membership or coideal verdict depends
    on the gauge.  In the gauge of zeta, as the CLI and the claims hold it,
    the basis is l(v^i_j) - delta_ij eps_{zeta^-1}, housed in mrep(v) over
    Q(p) but for the character; the default gauge 1 gives the X_ij."""

    def __init__(self, ws, v, zeta, gauge=TRIVIAL):
        self.ws = ws
        self.corep = v
        self.zeta = zeta
        self.gauge = gauge
        grade = zeta / gauge
        eps_g = ws.eps_zeta(gauge.inverse())
        self.basis = []
        for i in range(v.dim):
            for j in range(v.dim):
                x = twisted(ws, grade, ws.l_entry(v, i, j))
                if i == j:
                    x = x - eps_g
                self.basis.append(Functional(x.terms, f"X[{i + 1},{j + 1}]"))
        self.certified_dim = None
        self.cert_degree = None

    def rows(self, degree):
        return list(lie_rows(self.ws, self.corep, self.zeta, degree, self.gauge).values())

    def certify_dim(self):
        """Stabilized rank of {X_ij}; also records rank({X_ij} + {eps})."""
        if self.certified_dim is not None:
            return self.certified_dim, self.cert_degree
        dim, d = self.ws.stabilized_rank(self.rows)
        # every X_ij vanishes at the unit word and eps does not, so eps lies
        # outside their span and raises the rank by exactly 1
        self.rank_with_eps = dim + 1
        self.certified_dim, self.cert_degree = dim, d
        return dim, d

    def coideal_certificate(self, degree=None):
        return self.ws.coideal_check(self.basis, degree, self.gauge)


def quantum_lie(ws, v, zeta, gauge=TRIVIAL):
    lie = QuantumLieAlgebra(ws, v, zeta, gauge)
    lie.certify_dim()
    return lie


# ---------------------------------------------------------------------------
# the calculus: bimodule data and inner differential
# ---------------------------------------------------------------------------

class Calculus:
    """Gamma_zeta(v) in free-left-module coordinates over the forms
    theta_ij; the right action of the algebra is the representation
    eps_zeta (x) S(L-[v]) (x) L+[v] and d a = theta a - a theta."""

    def __init__(self, ws, v, zeta):
        self.ws = ws
        self.corep = v
        self.zeta = zeta
        self.lie = QuantumLieAlgebra(ws, v, zeta)
        self._xtab = {}

    def x_values(self, degree):
        if degree not in self._xtab:
            self._xtab[degree] = lie_rows(self.ws, self.corep, self.zeta, degree)
        return self._xtab[degree]

    def differential(self, a):
        """d a as the left-coefficient vector {(i, j): CoordElem} over the
        basis forms theta_ij (0-based indices)."""
        N = self.ws.N
        m = self.corep.dim
        deg = a.degree()
        xtab = self.x_values(deg)
        out = {(i, j): CoordElem() for i in range(m) for j in range(m)}
        for (w1, w2), c in coordalg.coproduct(a, N).items():
            for key, tab in xtab.items():
                v = tab.get(w2)
                if v is None:
                    continue
                out[key] = out[key] + CoordElem.from_word(w1, c * v)
        return out

    def right_action_on_form(self, key, b):
        """theta_key * b = sum_J b_(1) F^key_J(b_(2)) theta_J, where F is
        eps_zeta * mrep(v): mrep(v)'s value on b_(2), times zeta^|b_(2)|."""
        N = self.ws.N
        rep = self.ws.mrep(self.corep)
        out = {}
        for (b1, b2), c in coordalg.coproduct(b, N).items():
            row = rep.word_matrix(b2).get((key[0] + 1, key[1] + 1))
            if not row:
                continue
            z = self.zeta.power_value(len(b2))
            if z is not ONE:
                c = c * z
            for (k, l), v in row.items():
                tgt = (k - 1, l - 1)
                cur = out.get(tgt, CoordElem())
                out[tgt] = cur + CoordElem.from_word(b1, c * v)
        return out

    def leibniz_defect(self, a, b):
        """Coefficients of d(ab) - a db - da b; all must separate to zero."""
        dab = self.differential(a * b)
        da = self.differential(a)
        db = self.differential(b)
        out = {key: dab[key] - a * db[key] for key in dab}
        for key, coeff in da.items():
            if coeff.is_zero():
                continue
            moved = self.right_action_on_form(key, b)
            for tgt, elem in moved.items():
                out[tgt] = out[tgt] - coeff * elem
        return out


# ---------------------------------------------------------------------------
# central elements
# ---------------------------------------------------------------------------

def d_inverse_matrix(ws, v):
    """(D^{-1})^j_i = r(S^2(v^j_n) (x) v^n_i), an exact m x m matrix.

    Since l+[v]^n_i = r(. (x) v^n_i), the entry is sum_n S^2(l+[v]^n_i)
    (v^j_n): S(L+[v]) is read off L- (Workspace.antipode_l_corep) and each
    antipode transposes the indices, so entry [n][i] of antipode_rep
    applied to it is l+[v]^n_i o S^2, read here on v^j_n.
    """
    m = v.dim
    s2 = dual.antipode_rep(ws.antipode_l_corep(ws.lplus, v), ws.config)
    out = [[ZERO] * m for _ in range(m)]
    for j, mats in enumerate(dual.corep_values(s2, v)):
        for n, mat in enumerate(mats, start=1):
            for i, val in mat.get(n, {}).items():
                out[j][i - 1] = out[j][i - 1] + val
    return out


def central_label(v, zeta):
    """The label of central_element(ws, v, zeta)."""
    return f"c[{zeta}]({v.label})"


def central_element(ws, v, zeta):
    """c_zeta(v) = sum_ij eps_zeta l(v^i_j) (D^{-1})^j_i, with D^{-1} from
    d_inverse_matrix: eps_zeta * c_1(v), c_1(v) housed in mrep(v).  In the
    gauge of zeta c_zeta(v) is c_1(v)."""
    dinv = d_inverse_matrix(ws, v)
    m = ws.mrep(v)
    terms = []
    for i in range(v.dim):
        for j in range(v.dim):
            c = dinv[j][i]
            if c.is_zero():
                continue
            for k in range(1, v.dim + 1):
                terms.append((m, (k, k), (i + 1, j + 1), c))
    return Functional(twisted(ws, zeta, Functional(terms)).terms, central_label(v, zeta))


def convolution_values(ws, combos, degree):
    """Word values of linear combinations of convolution products.

    combos is a list of combinations [(coeff, f, g), ...]; the k-th result
    is {word: value} of sum coeff * (f * g) on words of degree <= degree,
    exact zeros omitted.  Each product is read off a conv representation
    (Workspace.convolve), so one batched traversal serves every combination.
    """
    fs = []
    for combo in combos:
        terms = []
        for k, f, g in combo:
            terms += ws.convolve(f, g).scaled(k).terms
        fs.append(Functional(terms))
    return dual.word_values(fs, degree)


def is_central(ws, c, degree=dual.CHECK_DEGREE):
    """c commutes with every l+- generator entry on words up to degree: the
    2N^2 commutators c * f - f * c all vanish."""
    idx = range(1, ws.N + 1)
    gens = [entry(i, j) for entry in (ws.lplus_entry, ws.lminus_entry) for i in idx for j in idx]
    rows = convolution_values(ws, [[(ONE, c, f), (MINUS_ONE, f, c)] for f in gens], degree)
    return not any(rows)


def quantum_lie_from_central(ws, c, gauge=TRIVIAL):
    """Basis of span{chi_b = c(. b) - c(b) eps : b words}, by exact rank.

    The right translates chi_b of the central element, for b in all_words
    order, are decided on the words of degree <= CHECK_DEGREE, and a
    translate is kept when its row is independent of the rows kept before
    it.  The kept translates are returned, MatRep-housed.

    The rows are decided in state coordinates.  With c and eps read as
    x0 rho(w) . y and x0 rho(w) . e (dual.automaton),
    chi_b(w) = xi_w . z_b for xi_w = x0 rho(w) and z_b = rho(b) y - c(b) e.
    The states xi_w of degree <= CHECK_DEGREE have a basis x0 and xi_w,
    w in W (dual.ReachableSpan), so each xi_w is a fixed combination of
    them.  Every chi_b vanishes at the unit word, whose state is x0, so the
    row of chi_b is an injective image of its values on W: rows are
    independent exactly when their values on W are.  Once |W| rows are
    kept no later one is, and only the kept translates are built.

    c may be given in the gauge of `gauge` (see QuantumLieAlgebra); the
    translates are then c(. b) - c(b) eps_{gauge^-1}, the gauged chi_b each
    divided by gauge^|b|, so the same words b are kept.
    """
    degree = dual.CHECK_DEGREE
    if not is_central(ws, c, degree):
        raise NotCentralError("functional is not central")
    eps_g = ws.eps_zeta(gauge.inverse())
    x0, (y, e), gens = dual.automaton(c, eps_g)
    span, states = dual.ReachableSpan(x0, [gens[g] for g in sorted(gens)]), []
    for _ in range(degree):
        states += span.grow()
    eps_on_w = [linalg.dot(x, e) for x in states]
    transposed = {g: linalg.mat_transpose(m) for g, m in gens.items()}
    z, basis, kept = {(): y}, [], []
    for b in dual.all_words(ws.N, degree):
        if len(basis) == len(states):
            break
        if b:
            z[b] = linalg.vec_mat(z[b[1:]], transposed.get(b[0], {}))
        cb = linalg.dot(x0, z[b])
        row = {}
        for k, (x, ex) in enumerate(zip(states, eps_on_w)):
            v = linalg.dot(x, z[b]) - cb * ex
            if not v.is_zero():
                row[k] = v
        if linalg.extend(basis, row):
            kept.append(_right_translate(c, b, eps_g))
    return kept


def _right_translate(c, b, eps):
    """chi_b = c(. b) - c(b) eps as a MatRep-housed functional; c(b) is the
    value of c(. b) at the unit."""
    terms = []
    for rep, r, col, co in c.terms:
        mat = rep.word_matrix(b)
        for s, row in mat.items():
            v = row.get(col)
            if v is not None and not v.is_zero():
                terms.append((rep, r, s, co * v))
    f = Functional(terms, f"chi[{coordalg.word_str(b)}]")
    cb = f.value_at_unit()
    if not cb.is_zero():
        f = f - eps.scaled(cb)
    return f


def central_span(ws, v, zeta, degree):
    """The right translates of c_zeta(v) that span its quantum Lie algebra,
    and their word values on words of degree <= degree, both in the gauge
    of zeta, where c_zeta(v) is c_1(v)."""
    gens = quantum_lie_from_central(ws, central_element(ws, v, TRIVIAL), zeta)
    return gens, dual.word_values(gens, degree)


# ---------------------------------------------------------------------------
# direct sums and the tensor identity
# ---------------------------------------------------------------------------

@dataclass
class DirectSumCertificate:
    dims: list
    total: int
    degree: int
    direct: bool


def direct_sum_calculi(cals, degree=None):
    """Combined quantum Lie algebra with the independence certificate
    rank(union) = sum of ranks; raises NotDirectError on deficiency."""
    if len(cals) < 2:
        raise ValueError("direct sum needs at least two calculi")
    ws = cals[0].ws
    if any(c.ws.config != ws.config for c in cals):
        raise ValueError("calculi live over different configurations")
    if degree is None:
        degree = max(c.lie.certify_dim()[1] for c in cals)
    degree = dual.positive_or_default(degree, None, "degree")
    dims, total = dual.span_ranks(*(c.lie.rows(degree) for c in cals))
    cert = DirectSumCertificate(dims, total, degree, total == sum(dims))
    if not cert.direct:
        raise NotDirectError(
            f"components overlap: rank(union) = {total} < {sum(dims)}"
        )
    return cert


def tensor_identity_check(ws, v, w, degree=None):
    """Span equality of {l((v (x) w)-entries)} and {l(v)-entries times
    l(w)-entries}, certified by mutual rank containment."""
    degree = dual.positive_or_default(degree, dual.CHECK_DEGREE, "degree")
    vw = coordalg.tensor(v, w)

    def entries(c):
        return [ws.l_entry(c, i, j) for i in range(c.dim) for j in range(c.dim)]

    rows_a = dual.word_values(entries(vw), degree)
    rows_b = dual.word_values([ws.convolve(a, b) for a in entries(v) for b in entries(w)], degree)
    (ra, rb), rab = dual.span_ranks(rows_a, rows_b)
    return ra == rb == rab, degree


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class Component:
    zeta: Zeta
    frame: YoungWeight
    dim: int
    cert_degree: int


@dataclass
class ClassificationReport:
    descriptor: str
    components: list
    total_dim: int
    residual_rank: int
    cert_degree: int
    central_label: str = ""
    coideal_ok: bool = True

    def to_json(self):
        return json.dumps(
            {
                "input": self.descriptor,
                "components": [
                    {
                        "zeta": str(c.zeta),
                        "frame": str(c.frame),
                        "dim": c.dim,
                        "cert_degree": c.cert_degree,
                    }
                    for c in self.components
                ],
                "total_dim": self.total_dim,
                "residual_rank": self.residual_rank,
                "cert_degree": self.cert_degree,
                "central_element": self.central_label,
                "coideal_ok": self.coideal_ok,
            },
            sort_keys=True,
        )


def candidate_library(ws, frame_bound=2):
    """Candidate irreducible corepresentations by Young frame, realizable
    from the registry: fundamental minors and the symmetric square."""
    out = [(YoungWeight(()), "1")]
    for k in dual.minor_degrees(ws.config):
        frame = YoungWeight.fundamental(k)
        if sum((t + 1) * m for t, m in enumerate(frame.m)) <= frame_bound:
            out.append((frame, "u" if k == 1 else f"minor:{k}"))
    if frame_bound >= 2 and ws.config.series == "A":
        out.append((YoungWeight((2,)), "proj:sym(tensor(u,u))"))
    return out


def classify(ws, rows, descriptor="", degree=None, frame_bound=2, basis=None,
             gauge=TRIVIAL):
    """Greedy matching of a quantum Lie algebra span against the candidate
    component library; reports leftover rank when the library is too small.
    Candidates and the coideal check are evaluated at degree, which should
    be the degree of rows (default CHECK_DEGREE).  rows and basis are given
    in the gauge of `gauge` (see QuantumLieAlgebra), and each candidate is
    read in the same gauge: X_zeta'(v) as lie_rows(ws, v, zeta', degree,
    gauge), twisted by zeta' / gauge, with eps as eps_{gauge^-1}.
    """
    degree = dual.positive_or_default(degree, dual.CHECK_DEGREE, "degree")
    rows = [r for r in rows if r]
    coideal_ok = True
    if basis:
        coideal_ok, _ = ws.coideal_check(basis, degree, gauge)
    big = linalg.echelon(rows)
    total = len(big)
    candidates = []
    for zeta in all_admissible(ws.config):
        for frame, desc in candidate_library(ws, frame_bound):
            if zeta.is_one() and frame.trivial:
                continue
            v = ws.corep(desc)
            candidates.append((v.dim * v.dim, (zeta.order, zeta.index), frame, zeta, v))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2].m))
    found = []
    found_echelon = []
    for dim2, _, frame, zeta, v in candidates:
        cand_rows = [r for r in lie_rows(ws, v, zeta, degree, gauge).values() if r]
        if not all(linalg.in_row_space(big, r) for r in cand_rows):
            continue
        merged = list(found_echelon)
        if sum(linalg.extend(merged, r) for r in cand_rows) != dim2:
            continue
        found_echelon = merged
        found.append(Component(zeta, frame, dim2, degree))
    residual = total - len(found_echelon)
    return ClassificationReport(
        descriptor, found, total, residual, degree, coideal_ok=coideal_ok
    )


# ---------------------------------------------------------------------------
# verification claims: fn(ws, **options) -> (ok, details).  A claim names
# the options it reads as keyword parameters with its own defaults (zeta the
# trivial character; corep a descriptor, "u"; degree None for the claim's
# default degree); run_claim refuses an option the claim does not read
# ---------------------------------------------------------------------------

def verify_minor_tau(ws, degree=None):
    """l(D_k) = tau_k for the (1,1) L-entry of each fundamental minor D_k."""
    degree = dual.positive_or_default(degree, 4, "degree")
    results = {}
    ok = True
    for k in dual.minor_degrees(ws.config):
        v = ws.corep("u" if k == 1 else f"minor:{k}")
        eq, deg = ws.functional_equal(
            ws.l_entry(v, 0, 0), ws.tau_functional(YoungWeight.fundamental(k)), degree
        )
        results[f"k={k}"] = {"equal": eq, "cert_degree": deg}
        ok = ok and eq
    return ok, {"results": results, "degree": degree}


def verify_centrality(ws, zeta=TRIVIAL, corep="u", degree=None):
    """c_zeta(v) is central and c - c(1) eps is a nonzero element of X_zeta(v).

    All three are decided in the gauge of zeta (see QuantumLieAlgebra),
    where c_zeta(v) is c_1(v), eps is eps_{zeta^-1} and X_zeta(v) has the
    rows lie_rows(ws, v, zeta, degree, zeta).  c_zeta(v) = eps_zeta * c_1(v)
    with eps_zeta central and invertible, so c_zeta(v) is central exactly
    when c_1(v) is."""
    degree = dual.positive_or_default(degree, dual.CHECK_DEGREE, "degree")
    v = ws.corep(corep)
    c = central_element(ws, v, TRIVIAL)
    central = is_central(ws, c, degree)
    row = (c - ws.eps_zeta(zeta.inverse()).scaled(c.value_at_unit())).word_values(degree)
    lie_span = linalg.echelon(list(lie_rows(ws, v, zeta, degree, zeta).values()))
    in_span = linalg.in_row_space(lie_span, row)
    nonzero = bool(row)
    return central and nonzero and in_span, {
        "central": central,
        "p_eps_nonzero": nonzero,
        "in_lie_span": in_span,
        "degree": degree,
        "zeta": str(zeta),
    }


def verify_tensor_identity(ws, degree=None):
    """X^c(u (x) u) = X^c(u) X^c(u)."""
    degree = dual.positive_or_default(degree, dual.CHECK_DEGREE, "degree")
    u = ws.corep("u")
    ok, deg = tensor_identity_check(ws, u, u, degree)
    return ok, {"degree": deg}


def verify_coideal(ws, zeta=TRIVIAL, corep="u", degree=None):
    """X_zeta(v) + C eps is a right coideal and ad_R-invariant."""
    degree = dual.positive_or_default(degree, dual.CHECK_DEGREE, "degree")
    ok, deg = QuantumLieAlgebra(ws, ws.corep(corep), zeta, zeta).coideal_certificate(degree)
    return ok, {"degree": deg, "zeta": str(zeta), "corep": corep}


def verify_leibniz(ws, zeta=TRIVIAL, corep="u"):
    """d(ab) = a db + da b on 20 seeded word pairs, separated at length 2."""
    cal = Calculus(ws, ws.corep(corep), zeta)
    rng = random.Random(0)
    words = dual.all_words(ws.N, 2)
    checked = 0
    for _ in range(20):
        a = CoordElem.from_word(rng.choice(words))
        b = CoordElem.from_word(rng.choice(words))
        for coeff in cal.leibniz_defect(a, b).values():
            if not ws.separated_equal(coeff, CoordElem(), length=2)[0]:
                return False, {"pairs": checked, "zeta": str(zeta)}
        checked += 1
    return True, {"pairs": checked, "zeta": str(zeta)}


# The most words of degree <= degree that the factorizability Gram may span:
# it is eliminated exactly, #words x #words.  Wall times on a 2-CPU x86-64
# Linux host, Python 3.11: 341 words (SL_q(2), degree 4) 1.5 s, 651 (SL_q(5),
# degree 2) 8.9 s, 820 (SL_q(3), degree 3) over 60 s, 1,365 (SL_q(2),
# degree 5) 37.7 s.
MAX_GRAM_WORDS = 700


def verify_factorizability(ws, degree=None):
    """The q-form Gram matrix on words of degree <= degree has Peter-Weyl rank."""
    degree = dual.positive_or_default(degree, 2, "degree")
    dual.check_word_count(ws.N, degree, MAX_GRAM_WORDS)
    # row b holds q(a (x) b) = l(b)(a) over the words a: the transpose of
    # the Gram matrix, read through the one word kernel
    gram = dual.word_values(
        [ws.l_of(CoordElem.from_word(b)) for b in dual.all_words(ws.N, degree)], degree
    )
    got = dual.word_rank(gram)
    want = coordalg.peter_weyl_rank(ws.config, degree)
    return got == want, {"rank": got, "peter_weyl_oracle": want, "degree": degree}


def verify_direct_sum(ws, zeta=TRIVIAL):
    """Gamma_zeta(1) + Gamma_zeta(u) is direct and as large as X_zeta(dsum(1,u))."""
    try:
        cert = direct_sum_calculi([Calculus(ws, ws.corep(d), zeta) for d in ("1", "u")])
    except NotDirectError as exc:
        return False, {"detail": str(exc)}
    lie_sum = quantum_lie(ws, ws.corep("dsum(1,u)"), zeta, zeta)
    return cert.direct and lie_sum.certified_dim == cert.total, {
        "dims": cert.dims,
        "total": cert.total,
        "dsum_corep_dim": lie_sum.certified_dim,
        "zeta": str(zeta),
    }


def verify_central_generates(ws, zeta=TRIVIAL, corep="u", degree=None):
    """The right translates of c_zeta(v) span X_zeta(v), both in the gauge
    of zeta."""
    degree = dual.positive_or_default(degree, dual.CHECK_DEGREE, "degree")
    v = ws.corep(corep)
    _, rows_c = central_span(ws, v, zeta, degree)
    (ra, rb), rab = dual.span_ranks(rows_c, list(lie_rows(ws, v, zeta, degree, zeta).values()))
    return ra == rb == rab, {
        "rank_central": ra, "rank_lie": rb, "rank_union": rab, "degree": degree
    }


# perfbench/tracer.py wraps a function by rebinding its module attribute, so
# no value here may be a traced function: the dict would keep it unwrapped
CLAIMS = {
    "minor-tau": verify_minor_tau,
    "centrality": verify_centrality,
    "tensor-identity": verify_tensor_identity,
    "coideal": verify_coideal,
    "leibniz": verify_leibniz,
    "factorizability": verify_factorizability,
    "direct-sum": verify_direct_sum,
    "central-generates": verify_central_generates,
}


def run_claim(name, ws, **options):
    """Run CLAIMS[name] with the options that were given (not None).  An
    option the claim does not read, zeta included, is a configuration
    error, not a run that silently ignores it."""
    claim = CLAIMS[name]
    given = {k: v for k, v in options.items() if v is not None}
    unread = sorted(set(given) - set(inspect.signature(claim).parameters))
    if unread:
        raise UnsupportedConfigError(
            f"claim {name!r} does not read {', '.join(unread)}"
        )
    return claim(ws, **given)
