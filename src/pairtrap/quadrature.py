"""Node-table quadrature on (0, inf), which with the wavefunction module is
all that imports numpy when loaded.

A fixed exp-sinh node table integrates a numpy-vectorized integrand in one
pass: every proper-time integral of the package runs on it (F's defining
integral, the quasi-2D Phi, Psi below E0 and above it, the profile sums).
An array of scales integrates a batch of integrands, each row on its own
coarse or fine rule; integrate_separable takes a grid of integrands
u_i(t) v_j(t) on shared nodes per power-of-two scale, with u and v once
per row and column, by the same rule and no BLAS product.  The level path
(solver, specfun, spectral's F from eta = 0.1 on) never imports this
module; spectral imports it inside the functions that integrate.  All
routines are pure functions of their inputs and keep no mutable state, so
they are safe to call concurrently.
"""

import math
from functools import partial

import numpy as np

from .numerics import QuadratureError

# integrate()'s requested tolerance
ABS_TOL = 1e-12
REL_TOL = 1e-10


def _tolerance_exceeded(value, est):
    # integrate()'s acceptance test: est over 10x the requested tolerance
    # and over 1e-9 relative; elementwise on arrays
    size = abs(value)
    return est > np.maximum(10.0 * (ABS_TOL + REL_TOL * size), 1e-9 * size)


# Exp-sinh (double-exponential) rule on (0, inf): the trapezoid rule in u
# after t = c exp(pi/2 sinh u), on the grid u = k/64, -5 <= u <= 3.5, fixed
# at import.  The nodes reach t/c = 2e-51 at the bottom, enough for an
# integrable t^(-1/2) endpoint, and t/c = 2e11 at the top.  The grid nests
# three rules: step 1/16 (k % 4 == 0), 1/32 (k even) and 1/64 (all k).
# NODE_TABLE holds the nodes at scale 1 in k order; _rule alone lays them
# out, the even ones first and the odd ones only for its fine pass.
_ES_U = np.arange(-320, 225) / 64.0
NODE_TABLE = np.exp(0.5 * math.pi * np.sinh(_ES_U))
NODE_TABLE.flags.writeable = False
_ES_W = 0.5 * math.pi * np.cosh(_ES_U) * NODE_TABLE / 64.0
_ES_T_EVEN, _ES_W_EVEN = NODE_TABLE[::2], 2.0 * _ES_W[::2]  # k = -320: even
_ES_T_ODD, _ES_W_ODD = NODE_TABLE[1::2], _ES_W[1::2]
# rounding floor of the estimate, relative to sum |w f|: a few ulps per
# integrand value plus log2(545) for the pairwise sum
_ES_ROUNDING = 16.0 * 2.0 ** -52


def _rule(scale, terms):
    # the exp-sinh rule at scale (a float or one per row) on
    # terms(nodes, weights, rows), the weighted integrand values of the
    # given rows at those nodes: the even nodes for every row (slice(None)),
    # where the step-1/16 rule weighs every second node twice, then the odd
    # nodes for the rows (a boolean mask) that fail the tolerance.  Returns
    # (value, est, whether a fine pass ran).
    evens = terms(_ES_T_EVEN, _ES_W_EVEN, slice(None))
    value = scale * evens.sum(axis=-1)
    coarse = (2.0 * scale) * evens[..., ::2].sum(axis=-1)
    size = abs(evens).sum(axis=-1)
    est = abs(value - coarse) + _ES_ROUNDING * scale * size
    bad = _tolerance_exceeded(value, est)
    if not np.count_nonzero(bad):
        return value, est, False
    scale = np.broadcast_to(scale, bad.shape)[bad]
    odds = terms(_ES_T_ODD, _ES_W_ODD, bad)
    fine = 0.5 * value[bad] + scale * odds.sum(axis=-1)
    size = 0.5 * size[bad] + abs(odds).sum(axis=-1)
    value, est = np.array(value), np.array(est)
    est[bad] = abs(fine - value[bad]) + _ES_ROUNDING * scale * size
    value[bad] = fine
    return value, est, True


def _settle(value, est):
    # QuadratureError, carrying all values and ests, where one fails
    if np.count_nonzero(_tolerance_exceeded(value, est)):
        raise QuadratureError("exp-sinh error estimate %.3e exceeds "
                              "tolerance" % np.max(est), value, est)


def integrate(f_vec, scale):
    """Integrate f over (0, inf) on the exp-sinh node table.

    f_vec maps a numpy array of nodes t to f(t) elementwise; the nodes are
    scale * exp(pi/2 sinh u), so scale should sit where f turns from its
    short-t to its long-t behaviour.  scale may be a float or a 1-D array;
    an array of n scales integrates n functions at once (f_vec then
    receives nodes of shape (n, m) and must keep the rows apart), and value
    and est are arrays of shape (n,).

    The step-1/32 rule in u runs first, its estimate its change against
    the nested rule on every second node.  Rows failing the tolerance
    ABS_TOL + REL_TOL |value| take the step-1/64 rule (the odd nodes, which
    f_vec gives for every row) with its change against step 1/32 as
    estimate; the others keep their values, so a row's result does not
    depend on its batch.  A rounding floor is added either way.  Returns
    (value, est); raises QuadratureError, carrying both, where a row fails
    on the finer rule too.  Sums run along the last axis, never through a
    BLAS product, so a value does not depend on the BLAS build.
    """
    scale = np.asarray(scale, dtype=float)
    col = scale[..., None]
    value, est, refined = _rule(scale, lambda nodes, weights, rows: (
        weights * f_vec(col * nodes))[rows])
    if refined:
        _settle(value, est)
    if value.ndim == 0:
        return float(value), float(est)
    return value, est


# points (so rows and columns) per integrate_separable block: ~2 MB arrays
_BLOCK = 1024


def integrate_separable(u, v, a, b, scale):
    """Integrate u(a_i, t) v(b_j, t) over (0, inf) at each point (i, j) of
    a tensor grid, as integrate would at scale[i, j].

    u and v map a column of a's or b's (1-D arrays) and nodes t to one row
    per parameter; a factor common to all points belongs in u.  Each scale
    is rounded to the nearest power of two, whose points share its nodes:
    per block of up to _BLOCK of them, u and v are evaluated on the rows
    and columns the block touches and a point's row is the elementwise
    product u[i] v[j].  integrate's rule and estimate follow, the fine pass
    for the failing points only, and no BLAS product; a point's result is
    the same alone as in any grid.  Returns (value, est) arrays of the
    shape of scale, which a QuadratureError carries.
    """
    def touched(idx, n):
        # the distinct entries of idx, ascending, and the place of each
        pos = np.zeros(n, dtype=np.intp)
        pos[idx] = 1
        (rows,) = pos.nonzero()
        pos[rows] = np.arange(len(rows))
        return rows, pos[idx]

    def terms(c, i, j, nodes, weights, rows):
        # the weighted rows of the points (i, j)[rows] at scale c
        t = c * nodes
        (ri, i), (rj, j) = touched(i[rows], len(a)), touched(j[rows], len(b))
        return (weights * u(a[ri, None], t))[i] * v(b[rj, None], t)[j]

    ks = np.rint(np.log2(scale)).ravel()
    value, est = np.empty(ks.shape), np.empty(ks.shape)
    refined = False
    for k in set(ks.tolist()):
        c = math.ldexp(1.0, int(k))
        (points,) = (ks == k).nonzero()
        for lo in range(0, len(points), _BLOCK):
            p = points[lo:lo + _BLOCK]
            i, j = np.divmod(p, len(b))
            value[p], est[p], fine = _rule(c, partial(terms, c, i, j))
            refined |= fine
    value, est = value.reshape(scale.shape), est.reshape(scale.shape)
    if refined:
        _settle(value, est)
    return value, est
