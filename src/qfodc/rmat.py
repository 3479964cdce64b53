"""Vector-representation R-matrices for the A series (SL_q(N)) and C series
(Sp_q(2n)), with their inverses, braid forms and validity oracles.

Index convention, used everywhere in the package: R^{in}_{jm} is the
coefficient of e_i (x) e_n in R(e_j (x) e_m).  The strictly triangular part
of the A-series matrix sits at R^{in}_{ni} with i > n; this is the variant
whose derived exterior algebra reproduces the classical-looking quantum
minors, and it is pinned here by the oracle battery rather than trusted.

Entries are stored without the root z of the universal r-form; z lives in
RData and is applied by the L-functional constructors.
"""

from __future__ import annotations

from . import linalg
from .scalar import FieldConfig, ONE, Scalar, UnsupportedConfigError, ZERO


class SpectralFailureError(ArithmeticError):
    pass


class RData:
    """Immutable R-matrix bundle for one configuration."""

    def __init__(self, config, entries, inverse_entries):
        self.config = config
        self.entries = entries                  # {(i,n,j,m): Scalar}
        self.inverse_entries = inverse_entries  # {(i,n,j,m): Scalar}
        self.z = config.z
        self.N = config.N

    def pair_labels(self):
        N = self.N
        return [(i, n) for i in range(1, N + 1) for n in range(1, N + 1)]


def _as_matrix(entries):
    out = {}
    for (i, n, j, m), v in entries.items():
        if not v.is_zero():
            out.setdefault((i, n), {})[(j, m)] = v
    return out


def _symplectic_data(N):
    """(eps_i, rho_i) rows of the C-series metric, 1-based lists."""
    n = N // 2
    eps = [0] + [1 if i <= n else -1 for i in range(1, N + 1)]
    rho = [0] + [n - i + 1 if i <= n else n - i for i in range(1, N + 1)]
    return eps, rho


def build_r(config):
    """The standard vector-representation R-matrix of the series."""
    if not isinstance(config, FieldConfig):
        raise UnsupportedConfigError("build_r needs a FieldConfig")
    N = config.N
    q = config.q
    lam = q - q.inverse()
    entries = {}
    if config.series == "A":
        for i in range(1, N + 1):
            for n_ in range(1, N + 1):
                entries[(i, n_, i, n_)] = q if i == n_ else ONE
        for i in range(1, N + 1):
            for n_ in range(1, i):
                entries[(i, n_, n_, i)] = lam
    else:
        eps, rho = _symplectic_data(N)
        prim = lambda i: N + 1 - i
        for i in range(1, N + 1):
            for n_ in range(1, N + 1):
                if i == n_:
                    entries[(i, n_, i, n_)] = q
                elif n_ == prim(i):
                    entries[(i, n_, i, n_)] = q.inverse()
                else:
                    entries[(i, n_, i, n_)] = ONE
        for i in range(1, N + 1):
            for j in range(1, i):
                key = (i, j, j, i)
                entries[key] = entries.get(key, ZERO) + lam
                key = (i, prim(i), j, prim(j))
                correction = lam * q ** (rho[i] - rho[j]) * Scalar.from_int(eps[i] * eps[j])
                entries[key] = entries.get(key, ZERO) - correction
        entries = {k: v for k, v in entries.items() if not v.is_zero()}
    labels = [(i, n_) for i in range(1, N + 1) for n_ in range(1, N + 1)]
    inv = linalg.mat_inverse(_as_matrix(entries), labels)
    inverse_entries = {}
    for (i, n_), row in inv.items():
        for (j, m), v in row.items():
            inverse_entries[(i, n_, j, m)] = v
    return RData(config, entries, inverse_entries)


def rhat(r):
    """Braid operator flip∘R as a sparse matrix on pair labels."""
    out = {}
    for (i, n, j, m), v in r.entries.items():
        out.setdefault((n, i), {})[(j, m)] = v
    return out


def _leg_matrix(entries, N, legs):
    """Embed a two-leg operator into the triple tensor space."""
    a, b = legs
    other = ({0, 1, 2} - {a, b}).pop()
    out = {}
    for (i, n, j, m), v in entries.items():
        for k in range(1, N + 1):
            row = [0, 0, 0]
            col = [0, 0, 0]
            row[a], row[b], row[other] = i, n, k
            col[a], col[b], col[other] = j, m, k
            out.setdefault(tuple(row), {})[tuple(col)] = v
    return out


def check_yang_baxter(r):
    """Exact check of R12 R13 R23 = R23 R13 R12."""
    N = r.N
    r12 = _leg_matrix(r.entries, N, (0, 1))
    r13 = _leg_matrix(r.entries, N, (0, 2))
    r23 = _leg_matrix(r.entries, N, (1, 2))
    lhs = linalg.mat_mul(linalg.mat_mul(r12, r13), r23)
    rhs = linalg.mat_mul(linalg.mat_mul(r23, r13), r12)
    return linalg.mat_eq(lhs, rhs)


def check_minimal_polynomial(r):
    """Exact monic minimal polynomial of the braid operator, ascending."""
    return linalg.minimal_polynomial(rhat(r), r.pair_labels())


def _monomial_roots(coeffs, max_exp):
    """Roots of a Scalar polynomial among signed monomials c*p^k."""
    roots = []
    for k in range(-max_exp, max_exp + 1):
        for sign in (1, -1):
            cand = Scalar({k: sign})
            acc = ZERO
            for c in reversed(coeffs):
                acc = acc * cand + c
            if acc.is_zero():
                roots.append(cand)
    return roots


def braid_eigenvalues(r):
    """Eigenvalues of the braid operator, largest p-degree first.

    Works for the supported series, whose braid eigenvalues are signed
    monomials in p; anything else raises SpectralFailureError.
    """
    coeffs = check_minimal_polynomial(r)
    deg = len(coeffs) - 1
    bound = 2 * r.N * r.config.root_exponent + 4
    roots = _monomial_roots(coeffs, bound)
    if len(roots) != deg:
        raise SpectralFailureError(
            f"braid operator minimal polynomial of degree {deg} has "
            f"{len(roots)} monomial roots; not diagonalizable over the search set"
        )
    roots.sort(key=_mono_key, reverse=True)
    return roots


def _mono_key(s):
    (e, c), = s.num.items()
    return (e, c)


def spectral_projectors(r):
    """Idempotents P_i with sum 1, P_iP_j = delta_ij P_i, Rhat = sum l_i P_i.

    Returned in the deterministic order of braid_eigenvalues(r).
    """
    labels = r.pair_labels()
    m = rhat(r)
    eigs = braid_eigenvalues(r)
    projectors = []
    for lam in eigs:
        num = linalg.mat_identity(labels)
        for mu in eigs:
            if mu == lam:
                continue
            factor = linalg.mat_sub(m, linalg.mat_scale(linalg.mat_identity(labels), mu))
            num = linalg.mat_mul(num, linalg.mat_scale(factor, (lam - mu).inverse()))
        projectors.append(num)
    total = {}
    for pmat in projectors:
        total = linalg.mat_add(total, pmat)
    if not linalg.mat_is_identity(total, labels):
        raise SpectralFailureError("spectral projectors do not sum to identity")
    return list(zip(eigs, projectors))


def projector_of_rank(projectors, rank):
    """The first of spectral_projectors' (eigenvalue, projector) pairs whose
    projector has the given rank, in eigenvalue order; None if there is
    none."""
    for _, pmat in projectors:
        if linalg.rank(list(pmat.values())) == rank:
            return pmat
    return None
