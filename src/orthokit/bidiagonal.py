"""Phase two of the SVD: the singular values and vectors of an
upper-bidiagonal matrix B.

``bidiagonal_svd`` is the one entry point.  It splits B wherever
|e_i| <= eps * (|d_i| + |d_i+1|) and divides each piece by its own power of
two (LAPACK xBDSDC), so a piece far below B's largest entry keeps its
relative accuracy.  A piece of more than LEAF rows, with vectors or
without, goes through divide and conquer (M. Gu & S. C. Eisenstat, SIAM J.
Matrix Anal. Appl. 16, 1995) by tree level, as xLASD0/xLASDA do: split at
middle rows down to leaves of at most LEAF rows, then merged a level at a
time, the row between two halves coupling them into an arrow matrix.  A
level makes one deflation test (xLASD2) and one solve of all its secular
equations by R.-C. Li's middle-way iteration (LAPACK Working Note 89,
1994); each merge's vectors come from the z-hat of the Loewner formula,
orthogonal however close the roots lie.  Values alone skip u but keep v, whose
boundary rows form each merge's z (xLASD6 with ICOMPQ = 0).

The leaves, and a piece of at most LEAF rows, run implicit-shift
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
# of at most LEAF rows run the implicit QR.  By tree level, LEAF 16 took
# 0.81-0.90x of 25's phase two with vectors at n = 81, 100, 156 and 400 (the
# same tree at 60 and 118), but 1.05x at 44 and 1.15x at 25.
LEAF = 25
SWEEPS = 30  # the sweep budget of each implicit-QR run, per row of that run
STEPS = 100  # the middle-way step budget of each level's secular solve

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
# Divide and conquer.  A block is rows lo:hi of the bidiagonal (d, e): m =
# hi - lo rows and m + sqre columns, its last row holding e[hi-1] too when
# sqre = 1.  Its result is (u, sigma, v) with block = u [diag(sigma) 0] v^T,
# sigma >= 0 in no particular order, and with sqre = 1 the last column of v
# spanning the block's null space; without ``want_u``, u is None.  Blocks of
# more than LEAF rows split at their middle row k into rows lo:k (sqre = 1)
# and k+1:hi, coupled by d[k] and e[k].


def _dc(d, e, sqre, want_u=True):
    """The result of the block (d, e): the leaves run the implicit QR, then
    the levels merge from the deepest up.  ``ConvergenceError.partial`` has
    the failing leaf's or level's values on its rows, |d| on the others."""
    tree, done = [[(0, d.size, sqre)]], {}
    while any(hi - lo > LEAF for lo, hi, _ in tree[-1]):
        tree.append([half for lo, hi, sqre in tree[-1] if hi - lo > LEAF
                     for half in ((lo, (lo + hi) // 2, 1), ((lo + hi) // 2 + 1, hi, sqre))])
    try:
        for lo, hi, sqre in [leaf for level in tree for leaf in level if leaf[1] - leaf[0] <= LEAF]:
            blocks, m = [(lo, hi, sqre)], hi - lo
            u, v = np.eye(m) if want_u else None, np.eye(m + sqre)
            dl, el = d[lo:hi].tolist(), e[lo : hi - 1 + sqre].tolist()
            if sqre:
                # m column rotations chase e[hi-1] out: column m becomes zero.
                _chase_zero_d(dl, el, m, 0, v)
                el.pop()
            done[lo, hi] = u, _qr_svd(dl, el, u, v[:, :m]), v
        for blocks in ([block for block in level if block[1] - block[0] > LEAF] for level in tree[-2::-1]):
            _dc_level(d, e, blocks, done)
    except ConvergenceError as err:
        part, err.partial = err.partial, np.abs(d)
        err.partial[np.concatenate([np.arange(lo, hi) for lo, hi, _ in blocks])] = part
        raise
    return done[0, d.size]


def _dc_level(d, e, blocks, done):
    """Merge each of one level's blocks from its two children in ``done``,
    with one deflation test and one secular solve for the whole level."""
    arrows = []
    for lo, hi, sqre in blocks:
        mid = (lo + hi) // 2
        (u1, s1, v1), (u2, s2, v2) = done.pop((lo, mid)), done.pop((mid + 1, hi))
        k, alpha, beta = s1.size, float(d[mid]), float(e[mid])
        # Exact power-of-two scaling keeps the squares below in range; it is
        # joint over two arrays and the coupling row, so not ``prescale``.
        scale = pow2_scale(max(float(s1.max()), float(s2.max()), abs(alpha), abs(beta)))
        alpha, beta = alpha / scale, beta / scale
        # The block is ub [M 0] vb^T with M the arrow matrix: first row z,
        # diagonal (0, s1, s2) with s1 and s2 merged in ascending order.  Row
        # mid is the first row; column 0 is the upper block's null vector,
        # turned by (c0, s0) into the lower block's when sqre = 1, and the
        # other column of that pair is the merged null vector.
        dm = np.concatenate(([0.0], s1, s2)) / scale
        z = np.concatenate(([alpha * v1[k, k]], alpha * v1[k, :k], beta * v2[0, : s2.size]))
        phi = beta * v2[0, s2.size] if sqre else 0.0
        c0, s0 = givens_params(z[0], phi)
        z[0] = c0 * z[0] + s0 * phi
        order = np.argsort(dm, kind="stable")  # d_0 = 0 stays first
        tol = 8.0 * EPS * max(float(dm.max()), abs(alpha), abs(beta))
        arrows.append((dm[order], z[order], order, tol, scale, (c0, s0, u1, u2, v1, v2)))
    ds, zs, cols, tols, scales, children = zip(*arrows)
    size = [*map(len, ds)]
    (dm, z, col), tol = map(np.concatenate, (ds, zs, cols)), np.repeat(tols, size)
    # Deflation (xLASD2), one test for the level: a negligible z_j leaves d_j
    # and its vectors as they are; of two other poles within tol, a turn gives
    # the lower one z_j = 0 (a NaN keeps each block's first pole, 0, and its
    # border out of the pairs).  The deflated go in the order the xLASD2 sweep
    # meets them; kept poles >= tol from d_0 = 0, and z_0 >= tol, keep roots off poles.
    first, blk = col == 0, np.repeat(np.arange(len(blocks)), size)
    tiny = ~first & (np.abs(z) <= tol)
    tiny, live = np.flatnonzero(tiny), np.flatnonzero(~tiny)
    pair = np.diff(np.where(first, np.nan, dm)[live]) <= tol[live[1:]]
    low, high = live[:-1][pair], live[1:][pair]
    zl, turns = z.tolist(), [[] for _ in blocks]
    for i, j in zip(low.tolist(), high.tolist()):
        c, s = givens_params(zl[j], -zl[i])
        turns[blk[i]].append((col[i], col[j], c, s))
        zl[j] = c * zl[j] - s * zl[i]
    out = np.concatenate((tiny, low))[np.argsort(np.concatenate((tiny, high)))]
    kept = live[~np.append(pair, False)]
    dk, zk, tk, fk = np.maximum(dm[kept], tol[kept]), np.array(zl)[kept], tol[kept], first[kept]
    dk[fk] = 0.0
    zk = np.where(fk & (np.abs(zk) <= tk), tk, zk)
    try:
        org, tau = _secular_roots(dk, zk, np.bincount(blk[kept]))
    except ConvergenceError as err:  # the roots so far beside the deflated poles
        dm[kept] = err.partial
        err.partial = dm * np.repeat(scales, size)
        raise
    for b, ((lo, hi, sqre), scale, turn) in enumerate(zip(blocks, scales, turns)):
        c0, s0, u1, u2, v1, v2 = children[b]
        r, q = blk[kept] == b, out[blk[out] == b]
        sig, um, vm = _arrow_svd(dk[r], zk[r], org[r], tau[r])
        m, k = hi - lo, (hi - lo) // 2
        # The children's bases side by side, column-major as ``bidiagonal_svd``
        # returns them (a row-major product has other bits); then the turns,
        # the kept columns and the deflated, and the arrow's vectors.
        ub = None if u1 is None else np.zeros((m, m), order="F")
        if ub is not None:
            ub[k, 0], ub[:k, 1 : k + 1], ub[k + 1 :, k + 1 :] = 1.0, u1, u2
        vb = np.zeros((m + sqre, m + sqre), order="F")
        vb[: k + 1, 0], vb[: k + 1, 1 : k + 1], vb[k + 1 :, k + 1 :] = v1[:, k], v1[:, :k], v2
        if sqre:
            rotate(vb[:, 0], vb[:, m], c0, s0)
        perm = col[np.concatenate((kept[r], q))]
        for w, vecs in ((ub, um), (vb, vm)):
            if w is not None:
                for x, y, c, s in turn:
                    rotate(w[:, x], w[:, y], c, s)
                w[:, :m] = w[:, perm]
                w[:, : len(vecs)] = w[:, : len(vecs)] @ vecs
        done[lo, hi] = ub, np.concatenate((sig, dm[q])) * scale, vb


def _sq_gaps(d, o, t):
    """d_j^2 - sigma_r^2 for sigma_r = o_r + t_r, row r and column j: from
    (d_j - o_r) - t_r, so the gap to the pole at the origin o_r is exact."""
    g = d - o[:, None]
    g -= t[:, None]
    g *= d + (o + t)[:, None]
    return g


def _secular_terms(d, z2, o, t, p, rows, n):
    """f's terms at sigma_r = o_r + t_r over the first n_r poles of row rows[r]
    of d and z2 (or their one row), split at pole p_r: the gaps to poles p_r
    and p_r + 1, the sums psi up to p_r and phi after, and their derivatives."""
    if d.shape[0] > 1:  # one row broadcasts; several are taken root by root
        d, z2 = d[rows], z2[rows]
    g = _sq_gaps(d, o, t)
    # Each row's two sums (and its padding's) by one reduceat, with no g-sized temporary.
    idx = np.repeat(np.arange(0, g.size, g.shape[1]), 3)
    idx[1::3] += p + 1
    idx[2::3] += n
    dp, dq = g.ravel()[idx[1::3] - 1], g.ravel()[idx[1::3]]
    term = np.divide(z2, g)
    psi, phi, _ = np.add.reduceat(term.ravel(), idx).reshape(-1, 3).T
    dpsi, dphi, _ = np.add.reduceat(np.divide(term, g, out=g).ravel(), idx).reshape(-1, 3).T
    return dp, dq, psi, phi, dpsi, dphi


def _arrow_svd(d, z, org, tau):
    """SVD of the arrow matrix M with first row z and diagonal d (d[0] = 0,
    d ascending with distinct entries, z[0] != 0) from its secular roots
    d[org] + tau: M = um diag(sigma) vm^T.  The vectors come from the z-hat
    that makes the computed sigma exact (Loewner formula, as paired ratios),
    so they are orthogonal to working precision however close the roots lie."""
    n = d.size
    if n == 1:
        return np.abs(z), np.ones((1, 1)), np.where(z < 0.0, -1.0, 1.0)[None]
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


def _secular_roots(d, z, n):
    """Roots (org, tau), flat like d, of f_b(s) = 1 + sum_j z_bj^2 / (d_bj^2 -
    s^2) for the problems b whose d_b (ascending from 0) and z_b are the next
    n_b entries of d and z, roots below 2: one in each (d_bi, d_bi+1) and one
    above the last pole, sigma = d_b[org] + tau from the nearer pole so that
    its distances to the poles keep their relative accuracy.  R.-C. Li's middle
    way (LAPACK Working Note 89, 1994) models f by c + s/(d_p^2 - s^2) +
    S/(d_p+1^2 - s^2), matching the sums up to p and after p in value and
    derivative, and steps to the model's root, or bisects when that leaves the
    bracket.  A root iterates on its own problem's poles, so a problem gets
    the bits it gets alone; one pole's root is |z_b0|.  ``ConvergenceError``,
    ``partial`` the roots so far, when STEPS steps leave a root unconverged."""
    # A row per problem, padded with poles 4 (above every root) and z = 0.
    real = np.arange(n.max() + 1) < n[:, None]
    row, i = np.nonzero(real)
    dp, z2 = np.full(real.shape, 4.0), np.zeros(real.shape)
    dp[real], z2[real] = d, z * z
    d, nr = dp, n[row]
    rho = np.array([zb[:nb].sum() for zb, nb in zip(z2, n.tolist())])
    last = i == nr - 1
    # The first evaluation: root i < n-1 at the midpoint of (d_i^2, d_i+1^2) from the origin
    # d_i, the last halfway to its bound sqrt(d[n-1]^2 + ||z||^2).  f there tells which half
    # holds root i, so which pole is nearer; the first step starts from it with the same terms.
    dl, du = d[row, i], d[row, i + 1]
    half = 0.5 * (du - dl) * (du + dl)
    smid = np.sqrt(dl * dl + half)
    tmid = half / (dl + smid)
    top = rho[row] / (dl + np.sqrt(dl * dl + rho[row]))
    tau = np.where(nr == 1, np.abs(z), np.where(last, 0.5 * top, tmid))
    ints = np.array((np.arange(i.size), np.minimum(i, nr - 2), row, nr))  # index, model pole, row, poles
    terms = _secular_terms(d, z2, dl, tau, *ints[1:])
    up = (1.0 + terms[2] + terms[3] < 0.0) & ~last
    org = i + up
    lo = np.where(up, -half / (du + smid), 0.0)
    hi = np.where(last, top, np.where(up, 0.0, tmid))
    x = np.array((d[row, org], np.where(up, lo, tau), lo, hi))  # each root's origin, tau and bracket
    x, ints, terms = x[:, nr > 1], ints[:, nr > 1], [y[nr > 1] for y in terms]
    for _ in range(STEPS):  # middle-way steps converge in about 10
        dp, dq, psi, phi, dpsi, dphi = terms
        o, t, la, ha = x
        w = 1.0 + psi + phi
        dw = dpsi + dphi
        sig = o + t
        # Rounding error of w: of the sums (each of one sign), and of
        # sigma = o + tau itself.
        done = np.abs(w) <= EPS * (8.0 * (1.0 + np.abs(psi) + np.abs(phi)) + 2.0 * sig * np.abs(t) * dw)
        np.copyto(la, t, where=w < 0.0)
        np.copyto(ha, t, where=w > 0.0)
        c = w - dp * dpsi - dq * dphi
        a = (dp + dq) * w - dp * dq * dw
        b = dp * dq * w
        root = np.sqrt(np.abs(a * a - 4.0 * b * c))
        q = a + np.where(a < 0.0, -root, root)
        # The model's roots as steps in sigma^2, 2b/q and q/2c (a zero divisor's Inf or NaN fails
        # the bracket test), the second preferred; when neither lands inside the bracket, bisection.
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.divide((2.0 * b, q), (q, 2.0 * c))
            s2 = sig * sig + eta
            cand = t + eta / (sig + np.sqrt(s2))
        ok = (s2 > 0.0) & (cand > la) & (cand < ha)
        new = np.where(ok[1], cand[1], np.where(ok[0], cand[0], 0.5 * (la + ha)))
        done |= (new <= la) | (new >= ha)  # the bracket is two adjacent floats
        tau[ints[0]] = t[:] = np.where(done, t, new)
        if done.all():
            return org, tau
        x, ints = x.compress(~done, axis=1), ints.compress(~done, axis=1)
        terms = _secular_terms(d, z2, x[0], x[1], *ints[1:])
    raise ConvergenceError(f"secular equation did not converge within {STEPS} steps", partial=d[row, org] + tau)


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
            if m > LEAF:
                up, sp, vp = _dc(de[:m], de[m:], 0, want_uv)
            else:  # one implicit-QR run
                up, vp = (np.eye(m), np.eye(m)) if want_uv else (None, None)
                sp = _qr_svd(de[:m].tolist(), de[m:].tolist(), up, vp)
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
