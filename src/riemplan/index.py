"""Second-variation quadratic form and its Galerkin spectral estimate.

For admissible fields (vanishing with first covariant derivative at both
ends) the second variation of the action along a solution is

    I(X, Y) = int [ <D^2X, D^2Y> + <Y, F(X, qdot) + nab_X grad V> ] dt.

``negative_direction`` reads one quadrature statement of I
(``_index_sum``); so does the index form on sampled fields that the tests
hold it to (``tests/references.py``).  A finite-dimensional restriction to parallel frame directions times
clamped quintic spline profiles turns sign counting into a generalized
symmetric eigenproblem whose mass matrix is the Sobolev-2 Gram form, so the
+-1e-9 eigenvalue cutoffs act on a scale-normalized spectrum.  A profile
lives on 6 knot spans, so both matrices are banded; they are assembled
span by span in O(m) work.  An interior biconjugate pair gives I a
negative direction (the bi-Jacobi necessary condition);
``negative_direction`` builds it from such a pair (t1, t2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory, quadrature_weights
from .errors import BasisError, ConstructionError, _recorded_warnings
from .geometry import parallel_transport, transport_frame
from .jacobi import (
    _anchor,
    _basis_flow,
    _field,
    _force_block,
    _rank_test,
    biconjugate_scan,
    jacobi_operator,
)

__all__ = [
    "IndexReport",
    "OptimalityReport",
    "NegativeDirectionReport",
    "negative_direction",
    "extended_index",
    "verdict",
]

_EIG_TOL = 1e-9


def _index_sum(chart, q, w, d2X, d2Y, Y, fX):
    """The index form's one quadrature statement: the sum of
    w (<D2X, D2Y>_g + <Y, f_X>_g) over the points q, where f_X is
    F(X, qdot) + nab_X grad V at those points."""
    return float(w @ (chart.inner(q, d2X, d2Y) + chart.inner(q, Y, fX)))


@dataclass
class NegativeDirectionReport:
    value: float
    delta: float
    eps: float
    t1: float
    t2: float
    ts: np.ndarray
    U: np.ndarray


def _bump_profiles(s):
    """Bump (1-s^2)^2 and the odd companion s(1-s^2)^2 with derivatives in s."""
    w = 1.0 - s * s
    phi = w * w
    dphi = -4.0 * s * w
    d2phi = -4.0 + 12.0 * s * s
    psi = s * w * w
    dpsi = w * (1.0 - 5.0 * s * s)
    d2psi = -12.0 * s + 20.0 * s**3
    return phi, dphi, d2phi, psi, dpsi, d2psi


def negative_direction(trajectory: Trajectory, t1: float, t2: float, delta: float | None = None, eps: float | None = None) -> NegativeDirectionReport:
    """Build an admissible field with negative second variation from a
    detected pair (t1, t2).

    The field is U = X + eps*Y: X is the vanishing witness on [t1, t2]
    extended by zero, and Y places bump corrections of half-width delta at
    the interior cut times, transported out of each cut, so the cross term
    picks up minus the squared jump of the witness jets.  For each delta
    the cut times {t1, t2, t_k +- delta} split the support into pieces of
    81 Simpson nodes each, and the three coefficients I(X, X),
    I(X, Y) + I(Y, X) and I(Y, Y) of I(U, U) take one quadrature on all of
    them.  With eps omitted it is the quadratic's minimizer
    eps* = -(I(X, Y) + I(Y, X)) / (2 I(Y, Y)), and a width whose I(Y, Y) is
    not positive is skipped; with delta omitted the widths
    {0.1, 0.05, 0.025, 0.0125} (t2 - t1) are tried and the first negative
    value wins.  Explicit values are evaluated as given (eps = 0 returns
    the witness quadrature residual).  The witness is the null vector of
    the scan's rank test at t2 (``_rank_test``), whose sigma ratio must be
    at most 1e-4, scaled to unit sup norm on [t1, t2]; it marches on the
    trajectory's field grid, where t1 snaps to its nearest node.  A cut
    within two field steps of the window's end gets no bump.
    """
    T_lo, T_hi = float(trajectory.ts[0]), float(trajectory.ts[-1])
    k1, t1 = _anchor(trajectory, t1)
    if not t1 < t2 <= T_hi:
        raise ValueError(f"need t1 < t2 <= {T_hi:.17g}, got t1 = {t1:.17g} (on the field grid), t2 = {t2:.17g}")
    chart, n = trajectory.chart, trajectory.chart.dim
    field = _field(trajectory)
    flow = _basis_flow(trajectory, k1)
    _, ratio, c = _rank_test(flow.at_time(t2), t2 - t1, null=True)
    if ratio > 1e-4:
        raise ValueError(f"({t1:g}, {t2:g}) is not a detected pair: sigma ratio {ratio:.2e} of the scaled rank test")
    ks = np.arange(k1, int(np.floor((t2 - T_lo) / field.h)) + 1)
    Xn = np.einsum("i,ki...->k...", c, flow.states[ks - k1])
    c = c / float(np.max(chart.norm(field.qs[ks], Xn[:, 0, :])))

    span = t2 - t1
    margin = 2.0 * field.h
    knots = [tk for tk, inside in ((t1, t1 > T_lo + margin), (t2, t2 < T_hi - margin)) if inside]
    if not knots:
        raise ConstructionError("both cut times sit at the trajectory boundary; no correction bump fits inside the window")

    deltas = [delta] if delta is not None else [f * span for f in (0.1, 0.05, 0.025, 0.0125)]
    tried = []
    for dl in deltas:
        if not 0.0 < dl < 0.5 * span or any(tk - dl < T_lo or tk + dl > T_hi for tk in knots):
            continue
        cuts = np.array(sorted({t1, t2} | {tk + s * dl for tk in knots for s in (-1.0, 1.0)}))
        grid = np.linspace(cuts[:-1], cuts[1:], 81, axis=1)  # 81 Simpson nodes per piece
        P, K = grid.shape
        w = np.concatenate([quadrature_weights(K, g[1] - g[0]) for g in grid])
        states = trajectory.interpolate(grid.ravel())
        q, v = states.q.reshape(P, K, n), states.v.reshape(P, K, n)

        X = np.zeros((P, K, 4, n))
        Y = np.zeros((P, K, 4, n))
        inside = (grid[:, 0] >= t1) & (grid[:, -1] <= t2)
        X[inside] = np.einsum("i,...ijk->...jk", c, flow.at_time(grid[inside]))
        # (A, B) at each cut: the jets flip orientation at t1, where the witness starts
        first, last = X[inside][0, 0], X[inside][-1, -1]
        jumps = {t1: (-first[3], first[2]), t2: (last[3], -last[2])}
        for tk in knots:
            i = int(np.searchsorted(cuts, tk))
            # the halves [tk - delta, tk] and [tk, tk + delta], each marched out of tk
            for p, out in ((i - 1, slice(None, None, -1)), (i, slice(None))):
                AB = parallel_transport(chart, grid[p, out], q[p, out], v[p, out], np.stack(jumps[tk]))[out]
                At, Bt = AB[:, 0], AB[:, 1]
                phi, dphi, d2phi, psi, dpsi, d2psi = (f[:, None] for f in _bump_profiles((grid[p] - tk) / dl))
                Y[p, :, 0] = phi * At + dl * psi * Bt
                Y[p, :, 1] = (dphi / dl) * At + dpsi * Bt
                Y[p, :, 2] = (d2phi / dl**2) * At + (d2psi / dl) * Bt

        X, Y = X.reshape(P * K, 4, n), Y.reshape(P * K, 4, n)
        force = _force_block(jacobi_operator(chart, trajectory.potential, states))
        fX, fY = (np.einsum("sij,sj->si", force, U[:, :3].reshape(P * K, 3 * n)) for U in (X, Y))
        qs, d2X, d2Y = states.q, X[:, 2], Y[:, 2]
        i_xx = _index_sum(chart, qs, w, d2X, d2X, X[:, 0], fX)
        i_cross = _index_sum(chart, qs, w, d2X, d2Y, Y[:, 0], fX) + _index_sum(chart, qs, w, d2Y, d2X, X[:, 0], fY)
        i_yy = _index_sum(chart, qs, w, d2Y, d2Y, Y[:, 0], fY)
        if eps is not None:
            e = eps
        elif i_yy > 0.0:
            e = -i_cross / (2.0 * i_yy)
        else:
            tried.append(f"delta={dl:.3g}: I(Y, Y) = {i_yy:.3e}")
            continue
        val = i_xx + e * i_cross + e * e * i_yy
        tried.append(f"(delta={dl:.3g}, eps={e:.3g}) -> {val:.3e}")
        if (eps is not None and delta is not None) or val < 0.0:
            return NegativeDirectionReport(float(val), float(dl), float(e), t1, float(t2), grid.ravel(), X[:, 0] + e * Y[:, 0])
    if not tried:
        raise ConstructionError("no feasible bump width: supports must fit strictly inside the window")
    raise ConstructionError(f"no negative value over the bump widths; tried {', '.join(tried)}")


def _profile_knots(T, m):
    """Interior knots of the m clamped quintic profiles on [0, T].

    Uniform, so the knots for m profiles are among those for 2m - 1: the
    counts 2^k + 1 nest under refinement.
    """
    m = int(m)
    if m < 2:
        raise BasisError("need at least two spline profiles")
    return np.linspace(0.0, T, m)[1:-1]


def _spline_basis(ts, T, knots):
    """The clamped quintic basis on [0, T] with interior ``knots``, local to each point.

    Returns (vals, first): vals[nu, s, a], nu < 3, is the nu-th derivative
    at ts[s] of full-basis member first[s] + a, one of the 6 nonzero on
    that point's knot span.  It sums the degree-(5 - nu) B-splines nonzero
    there, from the local Cox-de Boor recursion, against the differenced
    coefficients (de Boor, A Practical Guide to Splines, 1978, ch. X) in
    scipy BSpline's order, so it matches BSpline bit for bit.  Points at
    or past T use the last span's polynomial, points before 0 the first's.
    """
    d = 5
    kv = np.concatenate([np.zeros(d + 1), knots, np.full(d + 1, T)])
    nb = len(kv) - d - 1
    x = np.asarray(ts, float)[:, None]
    span = np.clip(np.searchsorted(kv, x[:, 0], side="right") - 1, d, nb - 1)
    # B[k]: the k + 1 degree-k B-splines nonzero on each point's span
    B, z = [np.ones_like(x)], np.zeros_like(x)
    for j in range(1, d + 1):
        idx = span[:, None] + np.arange(1, j + 1)
        xb, xa = kv[idx], kv[idx - j]
        w = B[-1] / (xb - xa)
        B.append(np.hstack([w * (xb - x), z]) + np.hstack([z, w * (x - xa)]))
    # coef[j, :, c]: on knot span d + j, the B-spline coefficients of the
    # nu-th derivative of member j + c, one of the 6 nonzero there
    coef = np.broadcast_to(np.eye(d + 1), (nb - d, d + 1, d + 1))
    vals = []
    for nu in range(3):
        if nu:
            rows = np.arange(nb - d)[:, None] + np.arange(d + 1 - nu)
            dt = kv[rows + d + 1] - kv[rows + nu]
            coef = (coef[:, 1:] - coef[:, :-1]) * (d + 1 - nu) / dt[..., None]
        local = coef[span - d]
        vals.append(sum(local[:, a] * B[d - nu][:, a : a + 1] for a in range(d + 1 - nu)))
    return np.stack(vals), span - d


@dataclass
class IndexReport:
    m: int
    n_fields: int
    eigenvalues: np.ndarray
    index: int
    kernel_dim: int
    extended_index: int
    verdict: str
    mass_condition: float
    knots: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def to_dict(self):
        return {
            "m": self.m,
            "n_fields": self.n_fields,
            "index": self.index,
            "kernel_dim": self.kernel_dim,
            "extended_index": self.extended_index,
            "verdict": self.verdict,
            "mass_condition": self.mass_condition,
            "smallest_eigenvalues": [float(v) for v in self.eigenvalues[:8]],
        }


# Gauss-Legendre points per knot span: exact for the degree-10 products of
# two quintic profiles, whatever the trajectory grid
_GAUSS_POINTS = 6


def _galerkin_points(T, knots):
    """Gauss-Legendre times (from the window start) and weights on every knot span."""
    x, wx = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    breaks = np.concatenate([[0.0], knots, [T]])
    half = 0.5 * np.diff(breaks)[:, None]
    mid = 0.5 * (breaks[1:] + breaks[:-1])[:, None]
    return (mid + half * x).ravel(), (half * wx).ravel()


def _galerkin_matrices(trajectory: Trajectory, m: int):
    """Stiffness A, mass B (both (m n, m n), profile-major) and the knots.

    The integrals run over Gauss-Legendre points on each knot span
    (``_galerkin_points``).  The curve is sampled there through
    ``Trajectory.interpolate``, the frame is transported along those times
    and the force tables come from ``jacobi_operator`` at those states, so
    the matrices depend on the trajectory grid only through its
    interpolation error.  The assembly is element by element (Strang &
    Fix, An Analysis of the Finite Element Method, 1973): the points of
    span p see only members p ... p + 5 of the clamped basis, so each span
    adds one 6 x 6 block of n x n entries to the full basis, whose two
    clamped members at each end are then dropped.  The work is O(m), and
    entries of profiles more than 5 apart are exactly 0.
    """
    chart, n, T = trajectory.chart, trajectory.chart.dim, trajectory.T
    knots = _profile_knots(T, m)
    s, w = _galerkin_points(T, knots)
    states = trajectory.interpolate(float(trajectory.ts[0]) + s)
    S, spans = len(s), m - 1
    P = _spline_basis(s, T, knots)[0].reshape(3, spans, _GAUSS_POINTS, 6)
    frame = transport_frame(chart, states.t, states.q, states.v)

    # W[t][s, j, i] = w[s] <frame_j, tab_i>_g for the tables tab = frame and
    # f_c, the force on frame vector i placed in jet slot c; G is W[0]
    force = _force_block(jacobi_operator(chart, trajectory.potential, states)).reshape(S, n, 3 * n)
    wfg = w[:, None, None] * (frame @ chart.metric(states.q))
    wff = (wfg @ force).reshape(S, n, 3, n).transpose(2, 0, 1, 3)
    W = (np.concatenate([wfg[None], wff]) @ frame.transpose(0, 2, 1)).reshape(4, spans, _GAUSS_POINTS, n, n)
    N = (m + 4) * n
    p, a, j, i, b = np.ix_(range(spans), range(6), range(n), range(n), range(6))
    idx = (((p + a) * n + j) * N + (p + b) * n + i).ravel()

    def assemble(terms):
        # terms (row jet, column jet, table): out[p, a, j, i, b] sums
        # P[row][p, r, a] P[col][p, r, b] W[table][p, r, j, i] over r and terms
        rows, cols, tab = (list(x) for x in zip(*terms))
        left = np.einsum("kpra,kprji->pajikr", P[rows], W[tab]).reshape(spans, 6 * n * n, -1)
        out = left @ P[cols].transpose(1, 0, 2, 3).reshape(spans, -1, 6)
        full = np.bincount(idx, out.ravel(), N * N).reshape(N, N)[2 * n : N - 2 * n, 2 * n : N - 2 * n]
        return 0.5 * (full + full.T)

    A = assemble([(2, 2, 0), (0, 0, 1), (0, 1, 2), (0, 2, 3)])
    B = assemble([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
    return A, B, knots


def extended_index(trajectory: Trajectory, m: int) -> IndexReport:
    """Galerkin sign count of the second variation on frame x profile fields.

    The trial space is every parallel-frame direction times each of m
    spline profiles.  Stiffness entries need only three scalar operator
    tables per quadrature point because the frame directions are
    covariantly constant; the tables come from ``jacobi_operator`` at the
    Gauss points of the knot spans, so the count does not depend on the
    trajectory grid beyond its interpolation error.  The mass matrix is
    the Sobolev-2 Gram form of the same fields.  Both are banded and are
    assembled span by span in O(m) work (``_galerkin_matrices``).  With
    B = L L^T the eigenvalues are those of L^-1 A L^-T, the reduction
    LAPACK's sygvd makes.  Counts use the +-1e-9 cutoffs; a mass condition
    number (lambda_max / lambda_min, infinite unless B is positive
    definite) beyond 1e12 or NaN, or a mass matrix without a Cholesky
    factor, aborts.
    """
    A, B, knots = _galerkin_matrices(trajectory, m)
    try:
        lam = np.linalg.eigvalsh(B)
        cond = float(lam[-1] / lam[0]) if lam[0] > 0 else np.inf
        if not cond <= 1e12:
            raise BasisError(f"profile basis is numerically dependent (mass condition {cond:.2e})")
        Li = np.linalg.inv(np.linalg.cholesky(B))
    except np.linalg.LinAlgError as exc:
        raise BasisError(f"Galerkin mass matrix cannot be factored: {exc}") from None
    C = Li @ A @ Li.T
    evals = np.linalg.eigvalsh(0.5 * (C + C.T))
    idx = int(np.sum(evals < -_EIG_TOL))
    ker = int(np.sum(np.abs(evals) <= _EIG_TOL))
    word = "indefinite" if idx else "semidefinite_with_kernel" if ker else "positive_definite"
    return IndexReport(
        m=m, n_fields=len(A), eigenvalues=evals, index=idx, kernel_dim=ker, extended_index=idx + ker,
        verdict=word, mass_condition=cond, knots=knots,
    )


@dataclass
class OptimalityReport:
    classification: str
    certified_interval: tuple
    index_report: IndexReport
    scan_report: object
    #: verdict-relevant warnings raised on the way, as "Category: message"
    warnings: list = field(default_factory=list)
    #: the resolution the verdict rests on: trajectory segments and step,
    #: the field grid's steps, and the Galerkin quadrature points
    grid: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "classification": self.classification,
            "grid": dict(self.grid),
            "certified_interval": [float(self.certified_interval[0]), float(self.certified_interval[1])],
            "galerkin": self.index_report.to_dict(),
            "rank_drops": self.scan_report.to_dict(),
            "warnings": list(self.warnings),
        }


def verdict(trajectory: Trajectory, m: int | None = None) -> OptimalityReport:
    """Classify a solved trajectory by rank-drop scan plus spectral count.

    A first-order-vanishing pair strictly inside the window, or any
    negative Galerkin eigenvalue, rules out local optimality over
    fixed-endpoint variations; an empty scan with trivial kernel leaves a
    nondegenerate candidate.  Restriction to short sub-windows always
    yields a minimizer, so the report carries the largest leading
    sub-interval free of detected pairs.  A ResolutionWarning from the scan
    is recorded in the report and still issued.  The report's ``grid``
    states the resolution the verdict rests on: the trajectory's
    ``segments`` and step ``h``; ``field_steps``, the steps of the field
    grid the scan marches on (``Trajectory.field_steps``, equal to
    ``segments`` unless error control refined it); and the Galerkin
    quadrature points.  A rank drop within two field steps of the window's
    end counts as the end itself.
    """
    if m is None:
        m = int(np.ceil(120 / trajectory.chart.dim))
    with _recorded_warnings() as notes:
        scan = biconjugate_scan(trajectory)
    rep = extended_index(trajectory, m)
    T_hi = float(trajectory.ts[-1])
    edge = 2.0 * trajectory.field_h
    interior = [t for t in scan.times if t < T_hi - edge]
    if interior or rep.index > 0:
        word = "not_omega_local"
    elif rep.kernel_dim > 0:
        word = "candidate_with_kernel"
    else:
        word = "candidate"
    first = min(scan.times) if scan.times else T_hi
    return OptimalityReport(
        classification=word,
        certified_interval=(float(trajectory.ts[0]), float(first)),
        index_report=rep,
        scan_report=scan,
        warnings=notes,
        grid={
            "segments": trajectory.segments,
            "h": trajectory.h,
            "field_steps": trajectory.field_steps,
            "galerkin_points": _GAUSS_POINTS * (len(rep.knots) + 1),
        },
    )
