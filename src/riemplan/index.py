"""Second-variation quadratic form and its Galerkin spectral estimate.

For admissible fields (vanishing with first covariant derivative at both
ends) the second variation of the action along a solution is

    I(X, Y) = int [ <D^2X, D^2Y> + <Y, F(X, qdot) + nab_X grad V> ] dt.

The curvature part and the potential coupling split off as

    I = I_c + P_plus + P_minus,

with P_plus / P_minus the symmetrized and antisymmetrized potential
Hessian pairings; the antisymmetry identity I(X,Y) - I(Y,X) = 2 P_minus(X,Y)
is exact up to quadrature.  A finite-dimensional restriction to parallel
frame directions times clamped quintic spline profiles turns sign counting
into a generalized symmetric eigenproblem whose mass matrix is the
Sobolev-2 Gram form, so the +-1e-9 eigenvalue cutoffs act on a
scale-normalized spectrum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.interpolate import BSpline

from .dynamics import CurveState, Trajectory, _action_from_positions, quadrature_weights
from .errors import BasisError
from .geometry import transport_frame
from .jacobi import F_operator, biconjugate_scan

__all__ = [
    "AdmissibleField",
    "IndexReport",
    "OptimalityReport",
    "field_from_profiles",
    "random_field",
    "index_form",
    "decompose",
    "second_variation_fd",
    "spline_profiles",
    "extended_index",
    "verdict",
]

_EIG_TOL = 1e-9


@dataclass
class AdmissibleField:
    """Samples of a variation field and its first two covariant derivatives
    on a trajectory grid.  Admissibility pins X and DX to zero at the ends."""

    ts: np.ndarray
    X: np.ndarray
    dX: np.ndarray
    d2X: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts, float)
        self.X = np.asarray(self.X, float)
        self.dX = np.asarray(self.dX, float)
        self.d2X = np.asarray(self.d2X, float)
        if self.X.shape != (len(self.ts),) + self.X.shape[1:]:
            raise ValueError("field samples must align with the time grid")

    def validate(self, chart, trajectory: Trajectory):
        if len(self.ts) != len(trajectory.ts) or not np.allclose(
            self.ts, trajectory.ts, atol=1e-12 * (1.0 + trajectory.T)
        ):
            raise ValueError("field grid does not match the trajectory grid")
        scale = max(float(np.max(chart.norm(trajectory.qs, self.X))), 1e-300)
        ends = max(
            float(chart.norm(trajectory.qs[0], self.X[0])),
            float(chart.norm(trajectory.qs[-1], self.X[-1])),
            float(chart.norm(trajectory.qs[0], self.dX[0])),
            float(chart.norm(trajectory.qs[-1], self.dX[-1])),
        )
        if ends > 1e-12 * scale:
            raise ValueError(
                f"field does not vanish to first order at the ends "
                f"(boundary magnitude {ends:.2e} vs scale {scale:.2e})"
            )


def field_from_profiles(trajectory: Trajectory, P, dP, d2P, frame=None) -> AdmissibleField:
    """Assemble a field from per-direction time profiles in a parallel frame.

    P, dP, d2P have shape (nodes, dim); column i multiplies the i-th frame
    vector.  Parallel frames have vanishing covariant derivative, so the
    covariant field jets are the profile time-derivatives alone.
    """
    if frame is None:
        frame = transport_frame(
            trajectory.chart, trajectory.ts, trajectory.qs, trajectory.vs
        )
    X = np.einsum("si,sia->sa", np.asarray(P, float), frame)
    dX = np.einsum("si,sia->sa", np.asarray(dP, float), frame)
    d2X = np.einsum("si,sia->sa", np.asarray(d2P, float), frame)
    return AdmissibleField(trajectory.ts.copy(), X, dX, d2X)


def random_field(trajectory: Trajectory, rng, modes: int = 4, frame=None) -> AdmissibleField:
    """Smooth random admissible field from squared-sine modes.

    Normalized to unit Sobolev-2 norm so pairings of independent draws sit
    at order one regardless of the window length or mode content.
    """
    ts = trajectory.ts
    T = trajectory.T
    n = trajectory.chart.dim
    P = np.zeros((len(ts), n))
    dP = np.zeros_like(P)
    d2P = np.zeros_like(P)
    for m in range(1, modes + 1):
        c = rng.standard_normal(n) / m**2
        u = np.pi * m * ts / T
        w = np.pi * m / T
        P += np.sin(u)[:, None] ** 2 * c
        dP += (w * np.sin(2.0 * u))[:, None] * c
        d2P += (2.0 * w**2 * np.cos(2.0 * u))[:, None] * c
    fld = field_from_profiles(trajectory, P, dP, d2P, frame)
    qw = quadrature_weights(len(ts), trajectory.h)
    qs = trajectory.qs
    h2 = float(
        qw
        @ (
            trajectory.chart.inner(qs, fld.X, fld.X)
            + trajectory.chart.inner(qs, fld.dX, fld.dX)
            + trajectory.chart.inner(qs, fld.d2X, fld.d2X)
        )
    )
    scale = np.sqrt(max(h2, 1e-300))
    fld.X /= scale
    fld.dX /= scale
    fld.d2X /= scale
    return fld


def _curve_states(trajectory: Trajectory, extra_axis=False) -> CurveState:
    sl = (slice(None), None) if extra_axis else slice(None)
    return CurveState(
        trajectory.ts,
        trajectory.qs[sl],
        trajectory.vs[sl],
        trajectory.accs[sl],
        trajectory.jerks[sl],
    )


def _force(chart, potential, trajectory, X, dX, d2X):
    """F(X, qdot) + potential Hessian along the whole grid."""
    states = _curve_states(trajectory)
    if chart.locally_symmetric:
        out = F_operator(chart, states, X, dX, d2X)
    else:
        out = np.empty_like(X)
        for k in range(len(trajectory.ts)):
            out[k] = F_operator(chart, trajectory.state(k), X[k], dX[k], d2X[k])
    return out + potential.hessian_op(trajectory.qs, X)


def index_form(chart, potential, trajectory: Trajectory, X: AdmissibleField, Y: AdmissibleField) -> float:
    """Second-variation pairing of two admissible fields by grid quadrature."""
    X.validate(chart, trajectory)
    Y.validate(chart, trajectory)
    w = quadrature_weights(len(trajectory.ts), trajectory.h)
    qs = trajectory.qs
    fx = _force(chart, potential, trajectory, X.X, X.dX, X.d2X)
    vals = chart.inner(qs, X.d2X, Y.d2X) + chart.inner(qs, Y.X, fx)
    return float(w @ vals)


def decompose(chart, potential, trajectory: Trajectory, X: AdmissibleField, Y: AdmissibleField):
    """Split the pairing into curvature part and potential couplings.

    Returns (I_c, P_plus, P_minus) with I_c + P_plus + P_minus equal to
    index_form(X, Y) under the same quadrature.
    """
    X.validate(chart, trajectory)
    Y.validate(chart, trajectory)
    w = quadrature_weights(len(trajectory.ts), trajectory.h)
    qs = trajectory.qs
    hx = potential.hessian_op(qs, X.X)
    hy = potential.hessian_op(qs, Y.X)
    fx = _force(chart, potential, trajectory, X.X, X.dX, X.d2X) - hx
    i_c = float(w @ (chart.inner(qs, X.d2X, Y.d2X) + chart.inner(qs, Y.X, fx)))
    yhx = chart.inner(qs, Y.X, hx)
    xhy = chart.inner(qs, X.X, hy)
    p_plus = 0.5 * float(w @ (yhx + xhy))
    p_minus = 0.5 * float(w @ (yhx - xhy))
    return i_c, p_plus, p_minus


def second_variation_fd(chart, potential, trajectory: Trajectory, X: AdmissibleField, Y: AdmissibleField, eps: float = 1e-3) -> float:
    """Mixed finite difference of the action through a two-parameter
    pointwise-exponential variation; the module's independent oracle."""
    X.validate(chart, trajectory)
    Y.validate(chart, trajectory)
    qs, h = trajectory.qs, trajectory.h
    va, vb = trajectory.vs[0], trajectory.vs[-1]

    def J(r, s):
        qv = chart.exp(qs, r * X.X + s * Y.X)
        return _action_from_positions(chart, potential, h, qv, va=va, vb=vb)

    jpp = J(eps, eps)
    jpm = J(eps, -eps)
    jmp = J(-eps, eps)
    jmm = J(-eps, -eps)
    noise = abs(jpp) * 2.2e-16 / (4.0 * eps * eps)
    if noise > 1e-5:
        warnings.warn(
            f"difference step eps={eps:g} is roundoff-dominated: "
            f"cancellation noise is about {noise:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return float((jpp - jpm - jmp + jmm) / (4.0 * eps * eps))


def spline_profiles(ts, T, m, dyadic=False):
    """Clamped quintic B-spline profiles vanishing to first order at ends.

    Returns (Phi0, Phi1, Phi2, knots): m rows of profile samples and their
    first two derivatives on ts.  The first and last two members of the
    clamped basis are dropped to enforce the boundary behavior.  With
    dyadic=True, m must be 2^k + 1 so interior knots nest under refinement.
    """
    m = int(m)
    if m < 2:
        raise BasisError("need at least two spline profiles")
    K = m - 2
    if dyadic:
        if (K + 1) & K:
            raise BasisError("dyadic profile count must be 2^k + 1")
        interior = T * np.arange(1, K + 1) / (K + 1)
    else:
        interior = np.linspace(0.0, T, K + 2)[1:-1]
    kv = np.concatenate([np.zeros(6), interior, np.full(6, T)])
    nb = len(kv) - 6
    Phi = np.zeros((3, m, len(ts)))
    for k in range(2, nb - 2):
        coef = np.zeros(nb)
        coef[k] = 1.0
        spl = BSpline(kv, coef, 5)
        Phi[0, k - 2] = spl(ts)
        Phi[1, k - 2] = spl.derivative()(ts)
        Phi[2, k - 2] = spl.derivative(2)(ts)
    return Phi[0], Phi[1], Phi[2], interior


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


def extended_index(chart, potential, trajectory: Trajectory, m: int, dyadic: bool = False) -> IndexReport:
    """Galerkin sign count of the second variation on frame x profile fields.

    The trial space is every parallel-frame direction times each of m
    spline profiles.  Stiffness entries need only three scalar operator
    tables per node because the frame directions are covariantly constant;
    the mass matrix is the Sobolev-2 Gram form of the same fields.  Counts
    use the +-1e-9 cutoffs; a mass condition number beyond 1e12 aborts.
    """
    n = chart.dim
    ts, qs = trajectory.ts, trajectory.qs
    S = len(ts)
    frame = transport_frame(chart, ts, qs, trajectory.vs)
    w = quadrature_weights(S, trajectory.h)
    g = chart.metric(qs)
    states = _curve_states(trajectory, extra_axis=True)

    zero = np.zeros_like(frame)
    if chart.locally_symmetric:
        f0 = F_operator(chart, states, frame, zero, zero)
        f1 = F_operator(chart, states, zero, frame, zero)
        f2 = F_operator(chart, states, zero, zero, frame)
    else:
        f0 = np.empty_like(frame)
        f1 = np.empty_like(frame)
        f2 = np.empty_like(frame)
        z1 = np.zeros((n, n))
        for k in range(S):
            st = trajectory.state(k)
            f0[k] = F_operator(chart, st, frame[k], z1, z1)
            f1[k] = F_operator(chart, st, z1, frame[k], z1)
            f2[k] = F_operator(chart, st, z1, z1, frame[k])
    f0 = f0 + potential.hessian_op(qs[:, None, :], frame)

    def pair(tab):
        return np.einsum("sja,sab,sib->sji", frame, g, tab)

    A0, A1, A2 = pair(f0), pair(f1), pair(f2)
    Gm = pair(frame)

    Phi0, Phi1, Phi2, knots = spline_profiles(ts, trajectory.T, m, dyadic)

    def asm(Pl, Pk, tab):
        return np.einsum("ls,ks,sji->ljki", Pl, Pk, w[:, None, None] * tab)

    A = asm(Phi2, Phi2, Gm) + asm(Phi0, Phi0, A0) + asm(Phi0, Phi1, A1) + asm(Phi0, Phi2, A2)
    B = asm(Phi0, Phi0, Gm) + asm(Phi1, Phi1, Gm) + asm(Phi2, Phi2, Gm)
    dim = m * n
    A = A.reshape(dim, dim)
    B = B.reshape(dim, dim)
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)

    cond = float(np.linalg.cond(B))
    if cond > 1e12:
        raise BasisError(
            f"profile basis is numerically dependent (mass condition {cond:.2e})"
        )
    evals = scipy.linalg.eigh(A, B, eigvals_only=True)
    idx = int(np.sum(evals < -_EIG_TOL))
    ker = int(np.sum(np.abs(evals) <= _EIG_TOL))
    if idx > 0:
        word = "indefinite"
    elif ker > 0:
        word = "semidefinite_with_kernel"
    else:
        word = "positive_definite"
    return IndexReport(
        m=m,
        n_fields=dim,
        eigenvalues=np.sort(evals),
        index=idx,
        kernel_dim=ker,
        extended_index=idx + ker,
        verdict=word,
        mass_condition=cond,
        knots=knots,
    )


@dataclass
class OptimalityReport:
    classification: str
    certified_interval: tuple
    index_report: IndexReport
    scan_report: object

    def to_dict(self):
        return {
            "classification": self.classification,
            "certified_interval": [float(self.certified_interval[0]), float(self.certified_interval[1])],
            "galerkin": self.index_report.to_dict(),
            "rank_drops": self.scan_report.to_dict(),
        }


def verdict(chart, potential, trajectory: Trajectory, m: int | None = None) -> OptimalityReport:
    """Classify a solved trajectory by rank-drop scan plus spectral count.

    A first-order-vanishing pair strictly inside the window, or any
    negative Galerkin eigenvalue, rules out local optimality over
    fixed-endpoint variations; an empty scan with trivial kernel leaves a
    nondegenerate candidate.  Restriction to short sub-windows always
    yields a minimizer, so the report carries the largest leading
    sub-interval free of detected pairs.
    """
    if m is None:
        m = int(np.ceil(120 / chart.dim))
    scan = biconjugate_scan(chart, potential, trajectory, t1=float(trajectory.ts[0]))
    rep = extended_index(chart, potential, trajectory, m)
    T_hi = float(trajectory.ts[-1])
    edge = 2.0 * trajectory.h
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
    )
