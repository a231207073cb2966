"""Phase two of the SVD: the singular values and vectors of an
upper-bidiagonal matrix B.

``bidiagonal_svd`` is the one entry point.  It splits B wherever
|e_i| <= eps * (|d_i| + |d_i+1|) and divides each piece by its own power of
two (LAPACK xBDSDC), so a piece far below B's largest entry keeps its
relative accuracy.  A piece of more than LEAF rows, with vectors or
without, goes through divide and conquer (M. Gu & S. C. Eisenstat, SIAM J.
Matrix Anal. Appl. 16, 1995; xLASD0-xLASD4): split at its middle row into
an upper k x (k+1) block and a lower block, both solved recursively, the
row between them coupling the halves into an arrow matrix.  Its deflation
follows xLASD2; the secular equation of each merge is solved for all roots
at once by R.-C. Li's middle-way iteration (LAPACK Working Note 89, 1994);
the vectors come from the z-hat of the Loewner formula, orthogonal however
close the roots lie.  Values alone skip u but keep v, whose boundary rows
form each merge's z (xLASD6 with ICOMPQ = 0).

The leaves, and a values-only piece of at most LEAF rows, run implicit-shift
QR steps on Python floats (Wilkinson shift on the trailing 2x2 of B^T B,
taken with the first rotation on the block over a power of two near its
largest entry), deflating by the same test.  Each sweep's rotation chains
are recorded, not applied, until the leaf converges or a rare deflation
sweep rotates that side's accumulator directly: then all of a side's chains
become upper-Hessenberg factors, multiplied pairwise and then in with one
GEMM (B. Lang, "Using Level 3 BLAS in Rotation-Based Algorithms", SIAM J.
Sci. Comput. 1998).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .matrix import pow2_scale, prescale, unscale
from .reflectors import givens_params, rotate

# Divide and conquer splits a bidiagonal of more than LEAF rows; its leaves
# of at most LEAF rows run the implicit QR.  Timed on bidiag_svd over
# n = 40-160: leaves of 16, 20, 25 and 32 rows were within 4% of each other.
LEAF = 25
SWEEPS = 30  # the sweep budget of each implicit-QR run, per row of that run

EPS = float(np.finfo(float).eps)


def _chain_factors(chains, n: int) -> np.ndarray:
    """The n x n upper-Hessenberg products G_0 G_1 ... G_n-2, stacked, of the
    recorded chains (lo, c, s): G_k rotates planes (k, k+1) by (c, s)[k-lo]
    inside the chain and is the identity (1, 0) outside it.

    Column k < n-1 is c_k times the carried column w_k, plus s_k on the
    subdiagonal; column n-1 is w_n-1.  Row i of the carries is the running
    product c_{i-1} (-s_i) (-s_{i+1}) ..., a row-wise cumprod, so every entry
    equals the one sequential ``rotate`` of column pairs on the identity gives.
    """
    one, zero = [1.0] * n, [0.0] * n
    # Rows (1, c_0 .. c_n-2, 1) and (0, s_0 .. s_n-2, 0), padded with identities.
    c, s = np.array([(one[: lo + 1] + cs + one[lo + len(cs) :], zero[: lo + 1] + sn + zero[lo + len(sn) :])
                     for lo, cs, sn in chains]).transpose(1, 0, 2)
    below = np.tri(n, k=-1, dtype=bool)
    h = np.repeat(-s[:, None, :n], n, axis=1)
    h[:, below] = 1.0
    h.reshape(len(chains), -1)[:, :: n + 1] = c[:, :n]
    np.cumprod(h, axis=2, out=h)
    h *= c[:, None, 1:]
    h[:, below] = 0.0
    h.reshape(len(chains), -1)[:, n :: n + 1] = s[:, 1:n]
    return h


def _apply_chains(m: np.ndarray, chains: list) -> None:
    """m <- m H_1 H_2 ... for the recorded chains, in order, and empty the
    record; an empty record leaves m alone.  The factors are multiplied
    pairwise, a tree of stacked matmuls, and then into m with one GEMM."""
    if not chains:
        return
    h = _chain_factors(chains, m.shape[1])
    while len(h) > 1:
        if len(h) % 2:  # the odd one out joins its left neighbour
            h[-2] = h[-2] @ h[-1]
        h = h[: len(h) - 1 : 2] @ h[1::2]
    m[...] = m @ h[0]
    chains.clear()


def _wilkinson_mu(d, e, lo, hi, w):
    dm, dn = d[hi - 1] / w, d[hi] / w
    em = e[hi - 1] / w
    em1 = e[hi - 2] / w if hi - 1 > lo else 0.0
    t11 = dm * dm + em1 * em1
    t12 = dm * em
    t22 = dn * dn + em * em
    half = 0.5 * (t11 - t22)
    root = math.hypot(half, t12)
    denom = half + (root if half >= 0.0 else -root)  # |denom| >= root >= |t12| > 0, the block unreduced
    # associated as t12 * (t12 / denom): t12^2 alone could underflow
    return t22 - t12 * (t12 / denom)


def _implicit_step(d: list, e: list, lo: int, hi: int, w: float):
    """One shifted QR step on the unreduced block [lo, hi]; chases the bulge
    down the superdiagonal with alternating right/left rotations.

    ``d`` and ``e`` are Python lists, updated in place.  The shift (in
    units of w^2) and the first rotation come from the block divided by the
    power of two ``w``, so their squares cannot underflow.  Returns the chains
    ``(right_c, right_s, left_c, left_s)`` for the caller to apply to the
    singular-vector accumulators.
    """
    mu = _wilkinson_mu(d, e, lo, hi, w)
    d0 = d[lo] / w
    y = d0 * d0 - mu
    z = d0 * (e[lo] / w)
    rc, rs, lc, ls = [], [], [], []
    for k in range(lo, hi):
        c, s = givens_params(y, z)
        if k > lo:
            e[k - 1] = c * y + s * z
        d0, e0, d1 = d[k], e[k], d[k + 1]
        dk = c * d0 + s * e0
        ek = -s * d0 + c * e0
        bulge = s * d1
        dk1 = c * d1
        c2, s2 = givens_params(dk, bulge)
        d[k] = c2 * dk + s2 * bulge
        e[k] = y = c2 * ek + s2 * dk1
        d[k + 1] = -s2 * ek + c2 * dk1
        if k < hi - 1:
            e1 = e[k + 1]
            z = s2 * e1
            e[k + 1] = c2 * e1
        rc.append(c)
        rs.append(s)
        lc.append(c2)
        ls.append(s2)
    return rc, rs, lc, ls


def _chase_zero_d(d, e, f, end, m):
    """d[f] = 0: rotations (j, f), j from f toward ``end``, sweep the e beside
    d[f] along the block and out.  Toward a larger ``end`` they rotate rows
    and zero row f (turning u); toward a smaller one, columns and column f
    (turning v).  d[f] itself is not read."""
    # d[j] stays hypot >= 0: givens_params's signs and rounding differ, so
    # the bits of U and V would move.
    step = 1 if end > f else -1
    side = min(step, 0)  # e[j + side] lies between d[j] and d[j + step]
    bulge, e[f + side] = e[f + side], 0.0
    for j in range(f + step, end + step, step):
        r = math.hypot(d[j], bulge)
        if r == 0.0:
            break
        c = d[j] / r
        s = bulge / r
        d[j] = r
        if m is not None:
            rotate(m[:, j], m[:, f], c, s)
        if j != end:
            bulge = -s * e[j + side]
            e[j + side] = c * e[j + side]


def _qr_svd(d: list, e: list, u, v) -> np.ndarray:
    """Implicit-shift QR on the bidiagonal (d, e), Python lists updated in
    place until e is zero; returns |d| with the signs moved into ``u``.  The
    rotations go into the columns of ``v``, and of ``u`` (given only with
    ``v``), unless they are None.  Raises ``ConvergenceError`` with
    ``partial`` = |d| (unsorted, in the lists' units) once SWEEPS sweeps
    per row are used up."""
    n = len(d)
    eps = EPS  # a local: the walk below reads it once per entry
    sweeps = 0
    rec_u, rec_v = [], []  # the chains not yet applied to u and v
    hi = n - 1
    while hi > 0:
        # The unreduced block [lo, hi] ends at the first negligible e above
        # hi (xBDSQR); rows above it are untouched until hi reaches them.
        # The walk also finds the block's largest |d| and |e| and smallest |d|.
        lo, top, emax = hi, abs(d[hi]), 0.0
        dmax = dmin = top
        while lo > 0:
            a, b = abs(d[lo - 1]), abs(e[lo - 1])
            if b <= eps * (a + top):
                e[lo - 1] = 0.0
                break
            lo, top = lo - 1, a
            if a > dmax:
                dmax = a
            if a < dmin:
                dmin = a
            if b > emax:
                emax = b
        if lo == hi:
            hi -= 1
            continue
        scale = dmax if dmax >= emax else emax
        tol = eps * scale
        if dmin <= tol:
            # A zero d[hi] is chased up through the columns, else the first
            # negligible d from the top down through the rows.
            f = hi if abs(d[hi]) <= tol else next(i for i in range(lo, hi) if abs(d[i]) <= tol)
            m, rec, end = (v, rec_v, lo) if f == hi else (u, rec_u, hi)
            d[f] = 0.0
            _apply_chains(m, rec)
            _chase_zero_d(d, e, f, end, m)
            continue
        sweeps += 1
        if sweeps > SWEEPS * n:
            raise ConvergenceError(
                f"bidiagonal SVD did not converge within {SWEEPS * n} sweeps", partial=np.abs(np.array(d))
            )
        rc, rs, lc, ls = _implicit_step(d, e, lo, hi, pow2_scale(scale))
        for m, rec, chain in ((v, rec_v, (lo, rc, rs)), (u, rec_u, (lo, lc, ls))):
            if m is not None:
                rec.append(chain)
                if len(rec) == LEAF:  # at most LEAF factors in a stack
                    _apply_chains(m, rec)
    _apply_chains(v, rec_v)
    _apply_chains(u, rec_u)
    d = np.array(d)
    if u is not None:
        u[:, d < 0.0] *= -1.0
    return np.abs(d)


# ---------------------------------------------------------------------------
# Divide and conquer (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995;
# LAPACK xBDSDC/xLASD0-xLASD4).  A block is rows lo:hi of the bidiagonal
# (d, e): m = hi - lo rows and m + sqre columns, its last row holding
# e[hi-1] too when sqre = 1.  Each call returns (u, sigma, v) with
# block = u [diag(sigma) 0] v^T, sigma >= 0 in no particular order, and with
# sqre = 1 the last column of v spanning the block's null space; without
# ``want_u``, u is None.


def _dc(d, e, lo, hi, sqre, want_u=True):
    m = hi - lo
    if m <= LEAF:
        return _dc_leaf(d, e, lo, hi, sqre, want_u)
    # Rows lo:k form a k x (k+1) block (sqre = 1); row k couples it to the
    # lower block through alpha = d[k] and beta = e[k].
    k = lo + m // 2
    upper = _dc(d, e, lo, k, 1, want_u)
    lower = _dc(d, e, k + 1, hi, sqre, want_u)
    return _dc_merge(upper, float(d[k]), float(e[k]), lower, sqre)


def _dc_leaf(d, e, lo, hi, sqre, want_u=True):
    m = hi - lo
    u, v = np.eye(m) if want_u else None, np.eye(m + sqre)
    dl, el = d[lo:hi].tolist(), e[lo : hi - 1 + sqre].tolist()
    if sqre:
        # m column rotations chase e[hi-1] out: column m becomes zero.
        _chase_zero_d(dl, el, m, 0, v)
        el.pop()
    try:
        sigma = _qr_svd(dl, el, u, v[:, :m])
    except ConvergenceError as err:
        full = np.abs(d)  # the diagonal stands in for the rest of the piece
        full[lo:hi] = err.partial
        err.partial = full
        raise
    return u, sigma, v


def _dc_merge(upper, alpha, beta, lower, sqre):
    u1, s1, v1 = upper
    u2, s2, v2 = lower
    k, m2 = s1.size, s2.size
    n = k + 1 + m2
    # Exact power-of-two scaling keeps the squares below in range; it is
    # joint over two arrays and the coupling row, so not ``prescale``.
    scale = pow2_scale(max(float(s1.max()), float(s2.max()), abs(alpha), abs(beta)))
    alpha /= scale
    beta /= scale
    # B = ub [M 0] vb^T with M the arrow matrix: first row z, diagonal
    # (0, s1, s2) with s1 and s2 merged in ascending order.  Row k of B is
    # the first row; column 0 is the upper block's null vector, turned by
    # (c0, s0) into the lower block's when sqre = 1, and the other column
    # of that pair is the merged null vector.
    d = np.concatenate(([0.0], s1, s2)) / scale
    z = np.concatenate(([alpha * v1[k, k]], alpha * v1[k, :k], beta * v2[0, :m2]))
    phi = beta * v2[0, m2] if sqre else 0.0
    c0, s0 = givens_params(z[0], phi)
    z[0] = c0 * z[0] + s0 * phi
    order = np.concatenate(([0], 1 + np.argsort(d[1:], kind="stable")))
    d, z = d[order], z[order]
    # Deflation (xLASD2): a negligible z_j leaves d_j and its vectors as they
    # are; two poles within tol are rotated so one of them has z_j = 0.
    tol = 8.0 * EPS * max(float(d[-1]), abs(alpha), abs(beta))
    dl, zl = d.tolist(), z.tolist()
    kept, deflated, turns, prev = [0], [], [], 0
    for j in range(1, n):
        if abs(zl[j]) <= tol:
            deflated.append(j)
            continue
        if prev and dl[j] - dl[prev] <= tol:
            c, s = givens_params(zl[j], -zl[prev])
            turns.append((order[prev], order[j], c, s))
            zl[j] = c * zl[j] - s * zl[prev]
            deflated.append(prev)
        elif prev:
            kept.append(prev)
        prev = j
    if prev:
        kept.append(prev)
    # Poles at least tol from d_0 = 0, and z_0 at least tol: the secular
    # equation then has distinct poles and no root at a pole.
    dk = np.maximum(d[kept], tol)
    dk[0] = 0.0
    zk = np.array(zl)[kept]
    if abs(zk[0]) <= tol:
        zk[0] = tol
    sig, um, vm = _arrow_svd(dk, zk)
    # Each basis is built only now, one at a time, to keep the peak memory
    # down, in the children's column order (0, s1, s2).
    cols = order[kept + deflated]
    ub = None
    if u1 is not None:
        ub = np.zeros((n, n), order="F")
        ub[k, 0] = 1.0
        ub[:k, 1 : k + 1] = u1
        ub[k + 1 :, k + 1 :] = u2
        _merged_basis(ub, turns, cols, um)
    del um
    vb = np.zeros((n + sqre, n + sqre), order="F")
    vb[: k + 1, 0] = v1[:, k]
    vb[: k + 1, 1 : k + 1] = v1[:, :k]
    vb[k + 1 :, k + 1 :] = v2
    if sqre:
        rotate(vb[:, 0], vb[:, n], c0, s0)
    _merged_basis(vb, turns, cols, vm)
    return ub, np.concatenate((sig, d[deflated])) * scale, vb


def _merged_basis(w, turns, cols, vecs):
    """Turn w, the children's columns side by side and any null column last,
    in place into the merge's basis: the deflation turns, the columns in
    ``cols`` order, then the first len(vecs) times the arrow's vectors.  w
    is column-major, like the bases ``bidiagonal_svd`` returns: the product
    of a row-major w has other bits."""
    for a, b, c, s in turns:
        rotate(w[:, a], w[:, b], c, s)
    w[:, : cols.size] = w[:, cols]
    nk = len(vecs)
    w[:, :nk] = w[:, :nk] @ vecs


def _sq_gaps(d, o, t):
    """d_j^2 - sigma_r^2 for sigma_r = o_r + t_r, row r and column j: from
    (d_j - o_r) - t_r, so the gap to the pole at the origin o_r is exact."""
    g = d - o[:, None]
    g -= t[:, None]
    g *= d + (o + t)[:, None]
    return g


def _secular_terms(d, z2, o, t, p):
    """f's terms at sigma_r = o_r + t_r, split at pole p_r < d.size - 1: the
    gaps to poles p_r and p_r + 1, the sums psi over the poles up to p_r and
    phi over the rest, and their derivatives in sigma^2."""
    g = _sq_gaps(d, o, t)
    dp, dq = np.take_along_axis(g, p[:, None] + [0, 1], axis=1).T
    # Each row's two sums by one reduceat, without a temporary the size of g.
    idx = np.repeat(np.arange(t.size) * d.size, 2)
    idx[1::2] += p + 1
    term = np.divide(z2, g)
    psi, phi = np.add.reduceat(term.ravel(), idx).reshape(-1, 2).T
    dpsi, dphi = np.add.reduceat(np.divide(term, g, out=g).ravel(), idx).reshape(-1, 2).T
    return dp, dq, psi, phi, dpsi, dphi


def _arrow_svd(d, z):
    """SVD of the arrow matrix M with first row z and diagonal d (d[0] = 0,
    d ascending with distinct entries, z[0] != 0): M = um diag(sigma) vm^T.

    The vectors are built from the z-hat that makes the computed sigma the
    exact singular values (Loewner formula, as paired ratios), so they are
    orthogonal to working precision however close the roots lie."""
    n = d.size
    if n == 1:
        return np.abs(z), np.ones((1, 1)), np.where(z < 0.0, -1.0, 1.0)[None]
    org, tau = _secular_roots(d, z)
    o = d[org]
    p = _sq_gaps(d, o, tau).T  # p[j, r] = d_j^2 - sigma_r^2
    # zhat_j^2 = p[j, n-1] times the ratios p[j, r] / (d_j^2 - d_k^2) that
    # pair root r with pole k = r below the diagonal, k = r + 1 from it on:
    # the poles k != j in order.
    gaps = d[:, None] - d
    gaps *= d[:, None] + d
    # the off-diagonal entries: rows of n + 1 from (0, 1), less the diagonal
    ratios = gaps.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)
    del gaps
    np.divide(p[:, :-1], ratios, out=ratios)
    zhat = np.sqrt(np.abs(p[:, -1] * ratios.prod(axis=1)))
    zhat[z < 0.0] *= -1.0
    del ratios
    vm = np.divide(zhat[:, None], p, out=p)
    um = d[:, None] * vm
    um[0] = -1.0
    vm /= np.sqrt(np.einsum("ij,ij->j", vm, vm))
    um /= np.sqrt(np.einsum("ij,ij->j", um, um))
    return o + tau, um, vm


def _secular_roots(d, z):
    """Roots of f(s) = 1 + sum_j z_j^2 / (d_j^2 - s^2), d ascending from
    d[0] = 0: one root in each (d_i, d_i+1) and one above d[-1].

    Each root is sigma_i = d[org_i] + tau_i with its origin at the nearer
    pole, so the distances to the poles keep their relative accuracy.  The
    iteration is R.-C. Li's middle way (LAPACK Working Note 89, 1994): f is
    modelled by c + s/(d_p^2 - s^2) + S/(d_p+1^2 - s^2), matching the sums
    over the poles up to p and after p in value and derivative, and the
    step is the model's root; a step that leaves the bracket is replaced by
    bisection.  All roots iterate together."""
    n = d.size
    z2 = z * z
    i = np.arange(n)
    org = i.copy()
    lo, hi = np.zeros(n), np.empty(n)
    pole = np.minimum(i, n - 2)  # the model's poles are pole and pole + 1
    # The first evaluation: root i < n-1 at the midpoint of (d_i^2, d_i+1^2)
    # from the origin d_i, the last halfway to its bound sqrt(d[-1]^2 +
    # ||z||^2).  f there tells which half holds root i, and so which pole is
    # nearer; the first step then starts from that pole with the same terms.
    dl, du = d[:-1], d[1:]
    half = 0.5 * (du - dl) * (du + dl)
    smid = np.sqrt(dl * dl + half)
    tmid = half / (dl + smid)
    rho = float(z2.sum())
    hi[-1] = rho / (d[-1] + math.sqrt(d[-1] * d[-1] + rho))
    terms = _secular_terms(d, z2, d, np.append(tmid, 0.5 * hi[-1]), pole)
    up = 1.0 + terms[2][:-1] + terms[3][:-1] < 0.0
    org[:-1] += up
    lo[:-1] = np.where(up, -half / (du + smid), 0.0)
    hi[:-1] = np.where(up, 0.0, tmid)
    tau = np.append(np.where(up, lo[:-1], hi[:-1]), 0.5 * hi[-1])
    act = i
    for _ in range(100):  # middle-way steps converge in about 10
        dp, dq, psi, phi, dpsi, dphi = terms
        t = tau[act]
        o = d[org[act]]
        w = 1.0 + psi + phi
        dw = dpsi + dphi
        # Rounding error of w: of the sums (each of one sign), and of
        # sigma = o + tau itself.
        done = np.abs(w) <= EPS * (8.0 * (1.0 + np.abs(psi) + np.abs(phi)) + 2.0 * (o + t) * np.abs(t) * dw)
        la = lo[act] = np.where(w < 0.0, t, lo[act])
        ha = hi[act] = np.where(w > 0.0, t, hi[act])
        c = w - dp * dpsi - dq * dphi
        a = (dp + dq) * w - dp * dq * dw
        b = dp * dq * w
        root = np.sqrt(np.abs(a * a - 4.0 * b * c))
        q = a + np.where(a < 0.0, -root, root)
        sig = o + t
        new = 0.5 * (la + ha)
        for eta in (np.divide(2.0 * b, q, out=np.full_like(q, np.nan), where=q != 0.0),
                    np.divide(q, 2.0 * c, out=np.full_like(q, np.nan), where=c != 0.0)):
            s2 = sig * sig + eta
            cand = t + eta / (sig + np.sqrt(np.where(s2 > 0.0, s2, 0.0)))
            ok = (s2 > 0.0) & (cand > la) & (cand < ha)
            new = np.where(ok, cand, new)
        done |= (new <= la) | (new >= ha)  # the bracket is two adjacent floats
        tau[act] = np.where(done, t, new)
        act = act[~done]
        if act.size == 0:
            break
        terms = _secular_terms(d, z2, d[org[act]], tau[act], pole[act])
    return org, tau


def bidiagonal_svd(d, e, want_uv: bool):
    """Singular values of the finite bidiagonal (d, e), sorted descending,
    and with ``want_uv`` the orthogonal (u, v) of B = u diag(sigma) v^T
    (None otherwise).  Each implicit-QR run has SWEEPS sweeps per row.  B is
    split and each piece scaled on its own, as above; the values are the
    same bits with or without u, v."""
    n = d.size
    # eps |d_i| + eps |d_i+1| cannot overflow near the float64 maximum.
    dl, el = d.tolist(), e.tolist()
    ends = [i + 1 for i in range(n - 1) if abs(el[i]) <= EPS * abs(dl[i]) + EPS * abs(dl[i + 1])] + [n]
    sigma = np.empty(n)
    u, v = (np.zeros((n, n)), np.zeros((n, n))) if want_uv else (None, None)
    try:
        for lo, hi in zip([0] + ends, ends):
            m = hi - lo
            de = np.concatenate((d[lo:hi], e[lo : hi - 1]))
            scale = prescale(de)
            if want_uv or m > LEAF:
                up, sp, vp = _dc(de[:m], de[m:], 0, m, 0, want_uv)
            else:
                sp = _qr_svd(de[:m].tolist(), de[m:].tolist(), None, None)
            unscale("bidiagonal SVD", scale, sp)
            sigma[lo:hi] = sp
            if want_uv:
                u[lo:hi, lo:hi], v[lo:hi, lo:hi] = up, vp
    except ConvergenceError as err:
        full = np.abs(d)  # B's diagonal stands in for the other pieces
        full[lo:hi] = err.partial * scale
        err.partial = np.sort(full)[::-1].copy()
        raise
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    if want_uv:
        u, v = u[:, order], v[:, order]
    return u, sigma, v
