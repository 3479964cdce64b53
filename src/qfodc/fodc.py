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

import json
import random
from dataclasses import dataclass

from . import coordalg, dual, linalg
from .coordalg import CoordElem, YoungWeight
from .cyclotomic import Zeta, all_admissible
from .dual import Functional, eps_word_values, iter_word_states
from .scalar import MINUS_ONE, ONE, ZERO


class NotCentralError(ValueError):
    pass


class NotDirectError(ValueError):
    pass


# ---------------------------------------------------------------------------
# quantum Lie algebras
# ---------------------------------------------------------------------------

def lie_rows(ws, v, zeta, degree):
    """Evaluation rows of all X_ij on words of degree <= degree.

    One base-field traversal of mrep(v) serves every X_ij: the twist
    character only contributes the grading factor zeta^{deg w}, and the
    counit is subtracted on the diagonal.  Returns {(i, j): {word: value}}
    with 0-based entry indices.
    """
    m = ws.mrep(v)
    x0 = {(k, k): ONE for k in range(1, v.dim + 1)}
    eps_tab = eps_word_values(degree, ws.N)
    zpow = [zeta.power_value(t) for t in range(degree + 1)]
    rows = {(i, j): {} for i in range(v.dim) for j in range(v.dim)}
    for word, state in iter_word_states(m, x0, degree):
        zp = zpow[len(word)]
        for (a, b), val in state.items():
            rows[(a - 1, b - 1)][word] = zp * val
    for i in range(v.dim):
        row = rows[(i, i)]
        for w, e in eps_tab.items():
            cur = row.get(w)
            cur = -e if cur is None else cur - e
            if cur.is_zero():
                row.pop(w, None)
            else:
                row[w] = cur
    return rows


class QuantumLieAlgebra:
    """Span of the functionals X_ij = eps_zeta l(v^i_j) - delta_ij eps."""

    def __init__(self, ws, v, zeta):
        self.ws = ws
        self.corep = v
        self.zeta = zeta
        self.xrep = dual.conv(
            dual.eps_zeta_rep(ws.config, zeta), ws.mrep(v), name=f"X[{zeta};{v.label}]"
        )
        self.basis = []
        eps_f = ws.eps_functional()
        for i in range(v.dim):
            for j in range(v.dim):
                terms = [
                    (self.xrep, (0, (k, k)), (0, (i + 1, j + 1)), ONE)
                    for k in range(1, v.dim + 1)
                ]
                if i == j:
                    terms += [(t[0], t[1], t[2], -t[3]) for t in eps_f.terms]
                self.basis.append(Functional(terms, f"X[{i + 1},{j + 1}]"))
        self.certified_dim = None
        self.cert_degree = None

    def rows(self, degree):
        return list(lie_rows(self.ws, self.corep, self.zeta, degree).values())

    def certify_dim(self):
        """Stabilized rank of {X_ij}; also records rank({X_ij} + {eps})."""
        if self.certified_dim is not None:
            return self.certified_dim, self.cert_degree
        dim, d, rows = self.ws.stabilized_rank(self.rows)
        # one more row raises the rank by at most 1
        self.rank_with_eps = linalg.rank(
            rows + [eps_word_values(d, self.ws.N)], bound=dim + 1
        )
        self.certified_dim, self.cert_degree = dim, d
        return dim, d

    def coideal_certificate(self, degree=None):
        basis = [x for x in self.basis if x.terms]
        return self.ws.coideal_check(basis, degree)


def quantum_lie(ws, v, zeta):
    lie = QuantumLieAlgebra(ws, v, zeta)
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
        """theta_key * b = sum_J b_(1) F^key_J(b_(2)) theta_J."""
        N = self.ws.N
        rep = self.lie.xrep
        out = {}
        for (b1, b2), c in coordalg.coproduct(b, N).items():
            mat = rep.word_matrix(b2)
            row = mat.get((0, (key[0] + 1, key[1] + 1)))
            if not row:
                continue
            for (_, (k, l)), v in row.items():
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

    def right_ideal_member(self, a):
        """a in R_Gamma iff eps(a) = 0 and X(a) = 0 for every basis X."""
        if not a.counit().is_zero():
            return False
        deg = a.degree()
        xtab = self.x_values(deg)
        for tab in xtab.values():
            total = None
            for w, c in a.terms.items():
                v = tab.get(w)
                if v is None:
                    continue
                t = c * v
                total = t if total is None else total + t
            if total is not None and not total.is_zero():
                return False
        return True


# ---------------------------------------------------------------------------
# central elements
# ---------------------------------------------------------------------------

def d_inverse_matrix(ws, v):
    """(D^{-1})^j_i = r(S^2(v^j_n) (x) v^n_i), an exact m x m matrix."""
    m = v.dim
    tab = ws.antipode_table()
    s2 = [
        [coordalg.apply_antipode(coordalg.apply_antipode(v.entries[i][j], tab), tab)
         for j in range(m)]
        for i in range(m)
    ]
    out = []
    for j in range(m):
        row = []
        for i in range(m):
            total = ZERO
            for n in range(m):
                total = total + ws.r_form(s2[j][n], v.entries[n][i])
            row.append(total)
        out.append(row)
    return out


def central_label(v, zeta):
    """The label of central_element(ws, v, zeta)."""
    return f"c[{zeta}]({v.label})"


def central_element(ws, v, zeta):
    """c_zeta(v) = sum_ij eps_zeta l(v^i_j) (D^{-1})^j_i."""
    dinv = d_inverse_matrix(ws, v)
    xrep = dual.conv(dual.eps_zeta_rep(ws.config, zeta), ws.mrep(v))
    terms = []
    for i in range(v.dim):
        for j in range(v.dim):
            c = dinv[j][i]
            if c.is_zero():
                continue
            for k in range(1, v.dim + 1):
                terms.append((xrep, (0, (k, k)), (0, (i + 1, j + 1)), c))
    return Functional(terms, central_label(v, zeta))


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


def is_central(ws, c, degree=3):
    """c commutes with every l+- generator entry on words up to degree: the
    2N^2 commutators c * f - f * c all vanish."""
    idx = range(1, ws.N + 1)
    gens = [entry(i, j) for entry in (ws.lplus_entry, ws.lminus_entry) for i in idx for j in idx]
    rows = convolution_values(ws, [[(ONE, c, f), (MINUS_ONE, f, c)] for f in gens], degree)
    return not any(rows)


def quantum_lie_from_central(ws, c):
    """Basis of span{a -> c(ab) - eps(a) c(b) : b words}, by exact rank.

    The functionals chi_b are right translates of the central element; the
    returned list is the subset of pivot translates, MatRep-housed.
    """
    if not is_central(ws, c, degree=3):
        raise NotCentralError("functional is not central")
    degree = ws.policy.start_degree + 1
    N = ws.N
    ctab = c.word_values(2 * degree)
    words = dual.all_words(N, degree)
    basis = []
    picked = []
    for b in words:
        cb = ctab.get(b, ZERO)
        row = {}
        for a in words:
            v = ctab.get(a + b)
            if v is None:
                v = ZERO
            if all(i == j for i, j in a):
                v = v - cb
            if not v.is_zero():
                row[a] = v
        # forward reduction in insertion order decides membership: each
        # new basis row is zero at the pivots of the rows before it
        rest = linalg.reduce_row(row, basis)
        if rest:
            basis += linalg.echelon([rest])
            picked.append(b)
    return [_right_translate(ws, c, b, ctab) for b in picked]


def _right_translate(ws, c, b, ctab):
    """chi_b = c(. b) - c(b) eps as a MatRep-housed functional."""
    terms = []
    for rep, r, col, co in c.terms:
        mat = rep.word_matrix(b)
        for s, row in mat.items():
            v = row.get(col)
            if v is not None and not v.is_zero():
                terms.append((rep, r, s, co * v))
    f = Functional(terms, f"chi[{coordalg.word_str(b)}]")
    cb = ctab.get(b, ZERO)
    if not cb.is_zero():
        f = f - ws.eps_functional().scaled(cb)
    return f


def central_span(ws, v, zeta, degree):
    """The right translates of c_zeta(v) that span its quantum Lie algebra,
    and their word values on words of degree <= degree."""
    gens = quantum_lie_from_central(ws, central_element(ws, v, zeta))
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
    dims, total = linalg.span_ranks(*(c.lie.rows(degree) for c in cals))
    cert = DirectSumCertificate(dims, total, degree, total == sum(dims))
    if not cert.direct:
        raise NotDirectError(
            f"components overlap: rank(union) = {total} < {sum(dims)}"
        )
    return cert


def tensor_identity_check(ws, v, w, degree=None):
    """Span equality of {l((v (x) w)-entries)} and {l(v)-entries times
    l(w)-entries}, certified by mutual rank containment."""
    degree = dual.positive_or_default(degree, ws.policy.start_degree + 1, "degree")
    vw = coordalg.tensor(v, w)
    mvw = ws.mrep(vw)
    x0 = {(k, k): ONE for k in range(1, vw.dim + 1)}
    rows_a = _state_rows(mvw, x0, degree)
    prod = dual.conv(ws.mrep(v), ws.mrep(w))
    x0p = {((k, k), (t, t)): ONE for k in range(1, v.dim + 1) for t in range(1, w.dim + 1)}
    rows_b = _state_rows(prod, x0p, degree)
    (ra, rb), rab = linalg.span_ranks(rows_a, rows_b)
    return ra == rb == rab, degree


def _state_rows(rep, x0, degree):
    cols = {}
    for word, state in iter_word_states(rep, x0, degree):
        for lbl, val in state.items():
            cols.setdefault(lbl, {})[word] = val
    return [row for row in cols.values() if row]


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
    n = ws.config.rank
    out = [(YoungWeight(()), "1")]
    for k in range(1, n + 1):
        if ws.config.series == "C" and k > 1:
            break
        frame = YoungWeight.fundamental(k)
        if sum((t + 1) * m for t, m in enumerate(frame.m)) <= frame_bound:
            out.append((frame, "u" if k == 1 else f"minor:{k}"))
    if frame_bound >= 2 and ws.config.series == "A":
        out.append((YoungWeight((2,)), "proj:sym(tensor(u,u))"))
    return out


def classify(ws, rows, descriptor="", degree=None, frame_bound=2, basis=None):
    """Greedy matching of a quantum Lie algebra span against the candidate
    component library; reports leftover rank when the library is too small.
    Candidates and the coideal check are evaluated at degree, which should
    be the degree of rows (default start_degree + 1).
    """
    degree = dual.positive_or_default(degree, ws.policy.start_degree + 1, "degree")
    rows = [r for r in rows if r]
    coideal_ok = True
    if basis:
        coideal_ok, _ = ws.coideal_check([x for x in basis if x.terms], degree)
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
        cand_rows = [r for r in lie_rows(ws, v, zeta, degree).values() if r]
        if not all(linalg.in_row_space(big, r) for r in cand_rows):
            continue
        merged = linalg.echelon([r for _, r in found_echelon] + cand_rows)
        if len(merged) != len(found_echelon) + dim2:
            continue
        found_echelon = merged
        found.append(Component(zeta, frame, dim2, degree))
    residual = total - len(found_echelon)
    return ClassificationReport(
        descriptor, found, total, residual, degree, coideal_ok=coideal_ok
    )


# ---------------------------------------------------------------------------
# verification claims: fn(ws, corep, zeta, degree) -> (ok, details), with corep
# a descriptor and degree None for the claim's own default; a claim ignores
# the arguments it has no use for
# ---------------------------------------------------------------------------

def verify_minor_tau(ws, corep, zeta, degree):
    """l(D_k) = tau_k for the (1,1) L-entry of each fundamental minor D_k."""
    degree = dual.positive_or_default(degree, 4, "degree")
    ks = range(1, ws.config.rank + 1) if ws.config.series == "A" else (1,)
    results = {}
    ok = True
    for k in ks:
        v = ws.corep("u" if k == 1 else f"minor:{k}")
        eq, deg = ws.functional_equal(
            ws.l_entry(v, 0, 0), ws.tau_functional(YoungWeight.fundamental(k)), degree
        )
        results[f"k={k}"] = {"equal": eq, "cert_degree": deg}
        ok = ok and eq
    return ok, {"results": results, "degree": degree}


def verify_centrality(ws, corep, zeta, degree):
    """c_zeta(v) is central and c - c(1) eps is a nonzero element of X_zeta(v)."""
    degree = dual.positive_or_default(degree, 3, "degree")
    v = ws.corep(corep)
    c = central_element(ws, v, zeta)
    central = is_central(ws, c, degree)
    row = (c - ws.eps_functional().scaled(c.value_at_unit())).word_values(degree)
    lie_span = linalg.echelon(list(lie_rows(ws, v, zeta, degree).values()))
    in_span = linalg.in_row_space(lie_span, row)
    nonzero = bool(row)
    return central and nonzero and in_span, {
        "central": central,
        "p_eps_nonzero": nonzero,
        "in_lie_span": in_span,
        "degree": degree,
        "zeta": str(zeta),
    }


def verify_tensor_identity(ws, corep, zeta, degree):
    """X^c(u (x) u) = X^c(u) X^c(u)."""
    degree = dual.positive_or_default(degree, 3, "degree")
    u = ws.corep("u")
    ok, deg = tensor_identity_check(ws, u, u, degree)
    return ok, {"degree": deg}


def verify_coideal(ws, corep, zeta, degree):
    """X_zeta(v) + C eps is a right coideal and ad_R-invariant."""
    degree = dual.positive_or_default(degree, 3, "degree")
    ok, deg = QuantumLieAlgebra(ws, ws.corep(corep), zeta).coideal_certificate(degree)
    return ok, {"degree": deg, "zeta": str(zeta), "corep": corep}


def verify_leibniz(ws, corep, zeta, degree):
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


def verify_factorizability(ws, corep, zeta, degree):
    """The q-form Gram matrix on words of degree <= degree has Peter-Weyl rank."""
    degree = dual.positive_or_default(degree, 2, "degree")
    words = dual.all_words(ws.N, degree)
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
    want = coordalg.peter_weyl_rank(ws.config, degree)
    return got == want, {"rank": got, "peter_weyl_oracle": want, "degree": degree}


def verify_direct_sum(ws, corep, zeta, degree):
    """Gamma_zeta(1) + Gamma_zeta(u) is direct and as large as X_zeta(dsum(1,u))."""
    try:
        cert = direct_sum_calculi([Calculus(ws, ws.corep(d), zeta) for d in ("1", "u")])
    except NotDirectError as exc:
        return False, {"detail": str(exc)}
    lie_sum = quantum_lie(ws, ws.corep("dsum(1,u)"), zeta)
    return cert.direct and lie_sum.certified_dim == cert.total, {
        "dims": cert.dims,
        "total": cert.total,
        "dsum_corep_dim": lie_sum.certified_dim,
        "zeta": str(zeta),
    }


def verify_central_generates(ws, corep, zeta, degree):
    """The right translates of c_zeta(v) span X_zeta(v)."""
    degree = dual.positive_or_default(degree, 3, "degree")
    v = ws.corep(corep)
    _, rows_c = central_span(ws, v, zeta, degree)
    (ra, rb), rab = linalg.span_ranks(rows_c, list(lie_rows(ws, v, zeta, degree).values()))
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
