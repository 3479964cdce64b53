"""Reference helpers that only the tests call.

Each is a plain function over the package's objects: direct evaluation of a
functional word by word, the r-form and its convolution inverse through
convolution powers of L+ and L- (with the L-functional tables and the
factorizability form read off them), the antipode
of an element, the two-sided antipode axiom, D^{-1} through the coordinate
antipode, distinguished functionals, the adjoint action, right-ideal
membership, the pairwise comatrix check, the letter legs of the
materialised comatrix defect, the ungauged twist consumers (the quantum Lie
basis and rows, the coideal check, the centrality claim, the central span
and the classification over the true values of eps_zeta), the irreducible
components of a descriptor, two R-matrix oracles and the Gauss-Jordan
inverse.  Nothing in src/qfodc calls them; the tests compare the package's
results against them.
"""

from qfodc import coordalg, dual, fodc, linalg, rmat
from qfodc.coordalg import CoordElem, YoungWeight
from qfodc.cyclotomic import all_admissible
from qfodc.dual import Functional, MatRep, antipode_rep, conv, conv_power, eps_zeta_rep
from qfodc.scalar import ONE, ZERO


class UnsupportedFunctionalError(ValueError):
    pass


# -- functionals on words ----------------------------------------------------

def evaluate_word(f, word):
    """f on one word, each term's entry chained along the word."""
    total = ZERO
    for rep, r, c, co in f.terms:
        v = rep.entry_on_word(r, c, word)
        if not v.is_zero():
            total = co * v + total
    return total


def evaluate(f, elem):
    """Linear evaluation of f on a CoordElem."""
    total = ZERO
    for w, c in elem.terms.items():
        v = evaluate_word(f, w)
        if not v.is_zero():
            total = c * v + total
    return total


# -- the r-form through convolution powers of L+ and L- ---------------------

def nested_label(seq):
    """The label (((a1, a2), a3), ...) that a left fold of conv gives the
    factors' labels a1, a2, ...; a single label stays as it is."""
    it = iter(seq)
    lab = next(it)
    for a in it:
        lab = (lab, a)
    return lab


def power(ws, base, k):
    """conv_power(base, k), cached per (base, k) in the workspace."""
    return ws._cached(("power", base, k), conv_power, base, k)


# pair_words values per (base, word, fixed); a MatRep hashes by identity,
# and the memo keeps every base it keys alive
_PAIR_MEMO = {}


def pair_words(ws, base, word, fixed):
    """The entry of power(base, |fixed|) at the index pairs of fixed,
    read right to left, on word: r(word (x) fixed) for base L+ and
    rbar(fixed (x) word) for base L-.  The empty fixed word gives the
    counit of word."""
    key = (base, word, fixed)
    v = _PAIR_MEMO.get(key)
    if v is None:
        if not fixed:
            v = ONE if all(i == j for i, j in word) else ZERO
        else:
            rev = fixed[::-1]
            v = power(ws, base, len(fixed)).entry_on_word(
                nested_label(i for i, _ in rev), nested_label(j for _, j in rev), word
            )
        _PAIR_MEMO[key] = v
    return v


def pairing(ws, base, a, b):
    """Bilinear extension of pair_words(ws, base, w1, w2) over the words
    w1 of a and w2 of b."""
    total = ZERO
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            v = pair_words(ws, base, w1, w2)
            if not v.is_zero():
                total = total + c1 * c2 * v
    return total


def l_corep_by_pairing(ws, base, v):
    """MatRep of the L-functionals of v over base L+ or L-: u^a_b maps to
    the matrix [pairing(ws, base, u^a_b, v^i_j)], so that
    l+[v]^i_j = r(. (x) v^i_j) and l-[v]^i_j = rbar(v^i_j (x) .)."""
    N = ws.N
    gens = {}
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            g = CoordElem.generator(a, b)
            m = {}
            for i in range(v.dim):
                for j in range(v.dim):
                    val = pairing(ws, base, g, v.entries[i][j])
                    if not val.is_zero():
                        m.setdefault(i + 1, {})[j + 1] = val
            if m:
                gens[(a, b)] = m
    return MatRep(N, range(1, v.dim + 1), gens, f"{base.name}[{v.label}]")


def q_form_by_pairing(ws, a, b):
    """q(a (x) b) = r(b1 (x) a1) r(a2 (x) b2), each r read through
    pair_words."""
    total = ZERO
    da = coordalg.coproduct(a, ws.N)
    db = coordalg.coproduct(b, ws.N)
    for (a1, a2), ca in da.items():
        for (b1, b2), cb in db.items():
            v1 = pair_words(ws, ws.lplus, b1, a1)
            if v1.is_zero():
                continue
            v2 = pair_words(ws, ws.lplus, a2, b2)
            if v2.is_zero():
                continue
            total = total + ca * cb * v1 * v2
    return total


# -- the workspace's forms, antipode and distinguished functionals -----------

def r_form(ws, a, b):
    """The universal r-form extended to word pairs by the bicharacter
    axioms (with the leg-order reversal in the second slot)."""
    return pairing(ws, ws.lplus, a, b)


def rbar_form(ws, a, b):
    """Convolution inverse of the r-form, extended from R^{-1} by the
    inverse bicharacter axioms (degree-preserving; agrees with
    r(S(a) (x) b))."""
    return pairing(ws, ws.lminus, b, a)


def antipode(ws, a):
    """S(a) by the workspace's oracle-pinned generator table."""
    return coordalg.apply_antipode(a, ws.antipode_table())


def antipode_axiom_holds_both_sides(ws, tab):
    """Both antipode identities sum_k S(u^i_k) u^k_j = delta_ij and
    sum_k u^i_k S(u^k_j) = delta_ij, each decided by dual separation."""
    N = ws.N
    unit = CoordElem.unit()
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            want = unit if i == j else CoordElem()
            left = CoordElem()
            right = CoordElem()
            for k in range(1, N + 1):
                left = left + tab[i - 1][k - 1] * CoordElem.generator(k, j)
                right = right + CoordElem.generator(i, k) * tab[k - 1][j - 1]
            if not ws.separated_equal(left, want)[0]:
                return False
            if not ws.separated_equal(right, want)[0]:
                return False
    return True


def d_inverse_by_coordinates(ws, v):
    """(D^{-1})^j_i = r(S^2(v^j_n) (x) v^n_i), with S^2 of each entry
    expanded in the coordinate algebra by the generator antipode table and
    paired by the r-form."""
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
                total = total + r_form(ws, s2[j][n], v.entries[n][i])
            row.append(total)
        out.append(row)
    return out


def principal_minor(ws, k):
    key = tuple(range(1, k + 1))
    return ws.minor_table(k)[(key, key)]


def k_functional(ws, i):
    """K_i = l-^1_1 ... l-^i_i."""
    rep = power(ws, ws.lminus, i)
    lab = nested_label(range(1, i + 1))
    return Functional([(rep, lab, lab, ONE)], f"K_{i}")


def cartan(config):
    """Cartan matrix as a list of rows (integers)."""
    n = config.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
        if i + 1 < n:
            a[i][i + 1] = -1
            a[i + 1][i] = -1
    if config.series == "C" and n >= 2:
        # long simple root alpha_n: a_{n-1,n} = -2 in the convention
        # with a_{ij} = 2(alpha_i,alpha_j)/(alpha_i,alpha_i)
        a[n - 1][n - 2] = -1
        a[n - 2][n - 1] = -2
    return a


def k_alpha_functional(ws, i):
    """K_{alpha_i} = prod_j K_j^{a_ji} via antipodes for negative powers."""
    a = cartan(ws.config)
    factors = []
    for j in range(1, ws.config.rank + 1):
        e = a[j - 1][i - 1]
        if e == 0:
            continue
        base = power(ws, ws.lminus, j)
        lab = nested_label(range(1, j + 1))
        if e < 0:
            base = antipode_rep(base, ws.config)
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


def ad_r(ws, f, x):
    """ad_R(f)x = S(f_(1)) x f_(2) for f a MatRep-housed functional."""
    if not f.terms:
        return Functional([], "ad(0)")
    freps = {rep for rep, *_ in f.terms}
    if len(freps) != 1:
        raise UnsupportedFunctionalError("ad_r needs f inside a single MatRep")
    frep = freps.pop()
    out_terms = []
    for xrep, xr, xc, xco in x.terms:
        c3 = ws._ad_rep(frep, xrep)
        for _, a, b, fco in f.terms:
            for k in frep.labels:
                out_terms.append((c3, (k, (xr, k)), (a, (xc, b)), fco * xco))
    return Functional(out_terms, f"ad({f.label}){x.label}")


# -- calculi -----------------------------------------------------------------

def right_ideal_member(cal, a):
    """a in R_Gamma iff eps(a) = 0 and X(a) = 0 for every basis X."""
    if not a.counit().is_zero():
        return False
    deg = a.degree()
    xtab = cal.x_values(deg)
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


# -- the twist consumers over the true values of eps_zeta ---------------------
# The package reads X_zeta(v), c_zeta(v) and eps in the gauge of the run's
# twist zeta (fodc.QuantumLieAlgebra); these bodies carry zeta through every
# row, walk and elimination instead.

def true_lie_basis(ws, v, zeta):
    """X_ij = eps_zeta l(v^i_j) - delta_ij eps, housed in
    conv(eps_zeta_rep, mrep(v)) and the counit's representation."""
    xrep = conv(eps_zeta_rep(ws.config, zeta), ws.mrep(v))
    eps = ws.eps_functional()
    basis = []
    for i in range(v.dim):
        for j in range(v.dim):
            terms = [(xrep, (0, (k, k)), (0, (i + 1, j + 1)), ONE)
                     for k in range(1, v.dim + 1)]
            if i == j:
                terms += [(t[0], t[1], t[2], -t[3]) for t in eps.terms]
            basis.append(Functional(terms, f"X[{i + 1},{j + 1}]"))
    return basis


def true_lie_rows(ws, v, zeta, degree):
    """The word rows of true_lie_basis, evaluated term by term."""
    return dual.word_values(true_lie_basis(ws, v, zeta), degree)


def true_central_element(ws, v, zeta):
    """c_zeta(v) = sum_ij eps_zeta l(v^i_j) (D^{-1})^j_i, housed in
    conv(eps_zeta_rep, mrep(v))."""
    dinv = fodc.d_inverse_matrix(ws, v)
    xrep = conv(eps_zeta_rep(ws.config, zeta), ws.mrep(v))
    terms = [(xrep, (0, (k, k)), (0, (i + 1, j + 1)), dinv[j][i])
             for i in range(v.dim) for j in range(v.dim) for k in range(1, v.dim + 1)]
    return Functional(terms, fodc.central_label(v, zeta))


def coideal_check_ungauged(ws, basis, degree):
    """Workspace.coideal_check on a basis of true functionals: their rows
    and the counit's, with nothing dropped, through the same two
    certificates."""
    rows = dual.word_values(basis, degree) + [dual.eps_word_values(degree, ws.N)]
    return ws._right_coideal(rows, degree) and ws._ad_invariant(basis, rows, degree)


def verify_centrality_ungauged(ws, zeta, corep, degree):
    """fodc.verify_centrality over the true c_zeta(v), eps and X_zeta(v)."""
    v = ws.corep(corep)
    c = true_central_element(ws, v, zeta)
    central = fodc.is_central(ws, c, degree)
    row = (c - ws.eps_functional().scaled(c.value_at_unit())).word_values(degree)
    in_span = linalg.in_row_space(linalg.echelon(true_lie_rows(ws, v, zeta, degree)), row)
    return central and bool(row) and in_span, {
        "central": central, "p_eps_nonzero": bool(row), "in_lie_span": in_span,
        "degree": degree, "zeta": str(zeta),
    }


def central_span_ungauged(ws, v, zeta, degree):
    """The right translates of the true c_zeta(v) that span its quantum Lie
    algebra, and their word rows."""
    gens = fodc.quantum_lie_from_central(ws, true_central_element(ws, v, zeta))
    return gens, dual.word_values(gens, degree)


def classify_ungauged(ws, rows, descriptor, degree, frame_bound=2, basis=None):
    """fodc.classify on true rows and basis, each candidate X_zeta'(v) read
    off true_lie_rows."""
    rows = [r for r in rows if r]
    coideal_ok = True
    if basis:
        coideal_ok = coideal_check_ungauged(ws, [x for x in basis if x.terms], degree)
    big = linalg.echelon(rows)
    candidates = []
    for zeta in all_admissible(ws.config):
        for frame, desc in fodc.candidate_library(ws, frame_bound):
            if zeta.is_one() and frame.trivial:
                continue
            v = ws.corep(desc)
            candidates.append((v.dim * v.dim, (zeta.order, zeta.index), frame, zeta, v))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2].m))
    found, found_echelon = [], []
    for dim2, _, frame, zeta, v in candidates:
        cand_rows = [r for r in true_lie_rows(ws, v, zeta, degree) if r]
        if not all(linalg.in_row_space(big, r) for r in cand_rows):
            continue
        merged = list(found_echelon)
        if sum(linalg.extend(merged, r) for r in cand_rows) != dim2:
            continue
        found_echelon = merged
        found.append(fodc.Component(zeta, frame, dim2, degree))
    return fodc.ClassificationReport(descriptor, found, len(big), len(big) - len(found_echelon),
                                     degree, coideal_ok=coideal_ok)


# -- corepresentations --------------------------------------------------------

def comatrix_holds(ws, cor):
    """Delta(v^i_j) = sum_k v^i_k (x) v^k_j for every entry, decided on
    every pair of separating representations of length <= 2: each one is
    applied to the second leg of the defect, and every first-leg element
    it leaves must vanish under separated_equal at length 2."""
    for i in range(cor.dim):
        for j in range(cor.dim):
            defect = comatrix_defect(ws, cor, i, j)
            for _, rep in ws.separating_reps(2):
                for leg in _defect_legs(defect, rep, 1):
                    if not ws.separated_equal(CoordElem(leg), CoordElem(), 2)[0]:
                        return False
    return True


def comatrix_defect(ws, cor, i, j):
    """D_ij = Delta(v^i_j) - sum_k v^i_k (x) v^k_j, materialised in F (x) F
    as {(w1, w2): scalar}."""
    defect = coordalg.coproduct(cor.entries[i][j], ws.N)
    for k in range(cor.dim):
        for w1, c1 in cor.entries[i][k].terms.items():
            for w2, c2 in cor.entries[k][j].terms.items():
                defect[(w1, w2)] = defect.get((w1, w2), ZERO) - c1 * c2
    return defect


def _defect_legs(defect, rep, side):
    """The nonzero legs that the entries (r, c) of rep leave when applied to
    tensor leg `side` (0 or 1) of a defect: the {word: scalar} maps of
    sum c rep(w_side)[r, c] w_other."""
    legs = {}
    for words, c in defect.items():
        w = words[1 - side]
        for r, row in rep.word_matrix(words[side]).items():
            for col, v in row.items():
                leg = legs.setdefault((r, col), {})
                leg[w] = leg.get(w, ZERO) + c * v
    legs = ({w: c for w, c in leg.items() if not c.is_zero()} for leg in legs.values())
    return [leg for leg in legs if leg]


def letter_legs(ws, cor, side):
    """(i, j, leg) for every nonzero leg that a letter eps, L+ or L- leaves
    on tensor leg `side` of the materialised defect D_ij."""
    out = []
    for i in range(cor.dim):
        for j in range(cor.dim):
            defect = comatrix_defect(ws, cor, i, j)
            for _, rep in ws.separating_reps(1):
                out.extend((i, j, leg) for leg in _defect_legs(defect, rep, side))
    return out


TRIVIAL, BOX = YoungWeight(()), YoungWeight.fundamental(1)


def components(config, node):
    """The distinct irreducible components of a node of dual._parse, as
    Young frames, folded from the descriptor grammar alone: 1 is trivial,
    u a box, uc the column of length N - 1 on SL_q(N) and a box on
    Sp_q(2n), minor:k the column of length k, proj:sym the row of length 2
    and proj:anti the column of length 2 (trivial at rank 1); dsum is the
    union, and a tensor with a factor whose components are among trivial
    and box follows Pieri (coordalg._tensor_with_vector) for the box and
    keeps the other factor for the trivial one.  None for the tensors the
    rule does not reach."""
    _, head, _, arg = node
    if head == "1":
        return {TRIVIAL}
    if head == "u":
        return {BOX}
    if head == "uc":
        return {YoungWeight.fundamental(config.N - 1) if config.series == "A" else BOX}
    if head == "minor":
        return {YoungWeight.fundamental(arg)}
    if head == "proj:sym":
        return {YoungWeight((2,))}
    if head == "proj:anti":
        return {YoungWeight.fundamental(2) if config.rank >= 2 else TRIVIAL}
    a, b = (components(config, x) for x in arg)
    if a is None or b is None:
        return None
    if head == "dsum":
        return a | b
    for x, y in ((a, b), (b, a)):
        if y <= {TRIVIAL, BOX}:
            return (x if TRIVIAL in y else set()) | (
                coordalg._tensor_with_vector(config, x) if BOX in y else set())
    return None


def component_dim(config, descriptor, zeta):
    """dim X_zeta(v) as the components predict it: the sum of
    weyl_dim(lambda)^2 over the distinct irreducible components lambda of
    v, the trivial one left out at zeta = 1; None where components gives
    None."""
    frames = components(config, dual._parse(descriptor, config))
    if frames is None:
        return None
    return sum(coordalg.weyl_dim(lam, config) ** 2
               for lam in frames if not (zeta.is_one() and lam.trivial))


# -- R-matrix oracles --------------------------------------------------------

def check_braid_relation(r):
    """(Rhat x 1)(1 x Rhat)(Rhat x 1) = (1 x Rhat)(Rhat x 1)(1 x Rhat)."""
    N = r.N
    rh_entries = {}
    for (i, n, j, m), v in r.entries.items():
        rh_entries[(n, i, j, m)] = v
    a = rmat._leg_matrix(rh_entries, N, (0, 1))
    b = rmat._leg_matrix(rh_entries, N, (1, 2))
    lhs = linalg.mat_mul(linalg.mat_mul(a, b), a)
    rhs = linalg.mat_mul(linalg.mat_mul(b, a), b)
    return linalg.mat_eq(lhs, rhs)


def check_inverse(r):
    """R R^{-1} = 1 on the pair labels."""
    prod = linalg.mat_mul(rmat._as_matrix(r.entries), rmat._as_matrix(r.inverse_entries))
    return linalg.mat_is_identity(prod, r.pair_labels())


# -- linear algebra ----------------------------------------------------------

def row_sub_scaled(row, coeff, other):
    """row - coeff * other, dropping exact zeros."""
    out = dict(row)
    linalg.add_scaled(out, -coeff, other)
    return out


def gauss_jordan_inverse(a, labels):
    """Exact inverse by Gauss-Jordan elimination, pivoting by column on the
    lightest entry of the rows not yet used; raises ArithmeticError if
    singular."""
    labels = list(labels)
    work = {r: dict(a.get(r, {})) for r in labels}
    inv = {r: {r: ONE} for r in labels}
    order = []
    remaining = set(labels)
    for col in labels:
        piv = None
        best = None
        for r in remaining:
            v = work[r].get(col)
            if v is not None and not v.is_zero():
                w = v.complexity()
                if best is None or w < best:
                    best, piv = w, r
        if piv is None:
            raise ArithmeticError("singular matrix")
        remaining.discard(piv)
        order.append((col, piv))
        f = work[piv][col].inverse()
        work[piv] = {c: f * v for c, v in work[piv].items()}
        inv[piv] = {c: f * v for c, v in inv[piv].items()}
        for r in labels:
            if r == piv:
                continue
            v = work[r].get(col)
            if v is None or v.is_zero():
                continue
            work[r] = row_sub_scaled(work[r], v, work[piv])
            inv[r] = row_sub_scaled(inv[r], v, inv[piv])
    # rows of the inverse follow the pivot permutation
    return {col: inv[piv] for col, piv in order}
