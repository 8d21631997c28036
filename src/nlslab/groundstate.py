"""Radial bound-state profiles and variational thresholds.

The stationary problem solved here is

    Q'' + (d-1)/r Q' = omega*Q - g(Q),    Q'(0) = 0,  Q(r) -> 0,

with the positive decaying solution sought for three nonlinearities:

    which = "double":         g(Q) = |Q|^(p-1) Q - |Q|^(4/d) Q
    which = "mass_critical":  g(Q) = |Q|^(4/d) Q           (omega fixed at 1)
    which = "single_power":   g(Q) = |Q|^(power-1) Q

The primary method is shooting on the amplitude Q(0) with a fixed-step RK4
integrator and bisection between undershoot (profile turns and grows) and
overshoot (profile crosses zero).  The initial bracket is a factor of four
around the closed-form single-power amplitude ((p+1) omega / 2)^(1/(p-1)).
Every sign change found in a 33-point scan of the bracket is bisected; if
several candidates appear, the one with the smallest action is reported and
the scan amplitudes are kept for inspection.

Past the radius where Q has dropped to ~1e-6 of its peak, the outward
trajectory leaves the stable manifold at machine-precision rate, so the
profile is continued with the decaying far-field asymptote

    Q ~ C r^(-(d-1)/2) exp(-sqrt(omega) r),

joined over a few decay lengths by a C^4 blend.  This keeps the pointwise
residual of the stationary equation below 1e-8 * Q(0) across the whole
profile, which solve_ground_state verifies before returning.

solve_ground_state() keeps its solutions in a small per-process cache
keyed on (ModelParams, which, power, r_max, step), so the initial data,
the classifier, the critical mass and every config of a multi-config
run share one solve.  The cached solution is frozen and its r, profile
and derivative arrays are read-only; a call with a guess bypasses the
cache, and a solve that raises leaves nothing behind.

A second, independent route (ground_state_on_grid) runs a semi-implicit
descent on the periodic spectral grid, re-normalized each step onto the
constraint <S'(Q), Q> = 0.  Shooting and descent agree on Q(0) to about
1e-8 relative in practice; tests demand 1e-6.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .functionals import ModelParams
from .spectral import ComplexField, GridSpec
from .virial import smoothstep_c4, smoothstep_c4_prime

__all__ = [
    "GroundStateSolution",
    "BracketError",
    "ConvergenceError",
    "Threshold",
    "PohozaevReport",
    "solve_ground_state",
    "ground_state_on_grid",
    "ground_state_field",
    "threshold",
    "pohozaev_check",
]

# surface measure of the unit sphere in R^d
_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi, 4: 2.0 * math.pi**2}

_WHICH = ("double", "mass_critical", "single_power")

_TAIL_MATCH_FRACTION = 3e-6   # graft the asymptote where Q/Q(0) falls to this
_BLEND_LENGTHS = 3.0          # blend window in units of the decay length


class BracketError(RuntimeError):
    """Shooting scan found no undershoot/overshoot sign change."""


class ConvergenceError(RuntimeError):
    """Solver finished without meeting its accuracy contract."""


def _terms(mp: ModelParams, which: str, power) -> tuple:
    """((mu, exponent), ...) for g(Q) = sum mu |Q|^(exponent-1) Q."""
    qc = 1.0 + 4.0 / mp.d
    if which == "double":
        return ((1.0, mp.p), (-1.0, qc))
    if which == "mass_critical":
        return ((1.0, qc),)
    if which == "single_power":
        ex = mp.p if power is None else float(power)
        if ex <= 1.0:
            raise ValueError(f"single_power exponent must exceed 1, got {ex}")
        return ((1.0, ex),)
    raise ValueError(f"which must be one of {_WHICH}, got {which!r}")


@dataclass(eq=False, frozen=True)
class GroundStateSolution:
    """Converged radial profile with its certificate integrals.

    m_omega and K_value are populated for the double nonlinearity only;
    the other cases do not sit on the K = 0 constraint.  Solutions are
    shared through the per-process cache, so the object is frozen and
    r, profile and derivative are read-only.
    """

    which: str
    omega: float
    params: ModelParams
    terms: tuple
    r: np.ndarray
    profile: np.ndarray
    derivative: np.ndarray
    amplitude: float
    residual: float
    mass: float
    grad_l2_sq: float
    m_omega: float | None
    K_value: float | None
    tail_coefficient: float
    step: float
    scan_amplitudes: tuple = ()


# -- shooting -----------------------------------------------------------------

def _integrate(a, h, n_steps, d, omega, terms, record=False):
    """Fixed-step RK4 outward from r=0.

    Returns (cls, i_stop, qs, vs): cls = +1 if Q crossed zero (amplitude too
    large), -1 if Q turned upward while positive (too small) or no event.
    Arrays are filled through i_stop when record is set, else None.
    """
    q = float(a)
    v = 0.0
    dm1 = d - 1.0
    qs = vs = None
    if record:
        qs = np.empty(n_steps + 1)
        vs = np.empty(n_steps + 1)
        qs[0] = q
        vs[0] = v

    def g(x):
        s = 0.0
        for mu, ex in terms:
            s += mu * math.copysign(abs(x) ** ex, x)
        return s

    def acc(r, qq, vv):
        a0 = omega * qq - g(qq)
        if r > 0.0:
            return a0 - dm1 * vv / r
        return a0 / d

    cls = -1
    i_stop = n_steps
    for i in range(n_steps):
        r = i * h
        k1q = v
        k1v = acc(r, q, v)
        q2 = q + 0.5 * h * k1q
        v2 = v + 0.5 * h * k1v
        k2q = v2
        k2v = acc(r + 0.5 * h, q2, v2)
        q3 = q + 0.5 * h * k2q
        v3 = v + 0.5 * h * k2v
        k3q = v3
        k3v = acc(r + 0.5 * h, q3, v3)
        q4 = q + h * k3q
        v4 = v + h * k3v
        k4q = v4
        k4v = acc(r + h, q4, v4)
        q += h * (k1q + 2.0 * (k2q + k3q) + k4q) / 6.0
        v += h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
        if record:
            qs[i + 1] = q
            vs[i + 1] = v
        if q <= 0.0:
            cls = 1
            i_stop = i + 1
            break
        if v > 0.0:
            cls = -1
            i_stop = i + 1
            break
    return cls, i_stop, qs, vs


def _classify(a, h, n_steps, d, omega, terms) -> int:
    return _integrate(a, h, n_steps, d, omega, terms)[0]


def _bisect_amplitude(lo, hi, h, n_steps, d, omega, terms) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if _classify(mid, h, n_steps, d, omega, terms) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _tail(r, C, alpha, sqw):
    val = C * r ** (-alpha) * np.exp(-sqw * r) if alpha else C * np.exp(-sqw * r)
    return val


def _tail_derivative(r, C, alpha, sqw):
    return -_tail(r, C, alpha, sqw) * (sqw + alpha / r)


def _build_profile(a, h, n_steps, d, omega, terms):
    """Integrate at a converged amplitude and graft the far-field asymptote."""
    sqw = math.sqrt(omega)
    alpha = 0.5 * (d - 1.0)
    _, i_stop, qs, vs = _integrate(a, h, n_steps, d, omega, terms, record=True)

    cut = _TAIL_MATCH_FRACTION * a
    below = np.nonzero(qs[: i_stop + 1] <= cut)[0]
    if below.size == 0:
        raise ConvergenceError(
            "shooting trajectory never decayed to the tail-matching level; "
            "amplitude bisection failed to converge"
        )
    i_m = int(below[0])
    r_m = i_m * h
    width = _BLEND_LENGTHS / sqw
    i_w = min(i_m + int(math.ceil(width / h)), i_stop)
    if i_w <= i_m:
        raise ConvergenceError("no room to blend the far-field asymptote")
    width = (i_w - i_m) * h

    r = np.arange(n_steps + 1) * h
    C = qs[i_m] * (r_m**alpha) * math.exp(sqw * r_m)

    q_out = np.empty(n_steps + 1)
    v_out = np.empty(n_steps + 1)
    q_out[: i_m + 1] = qs[: i_m + 1]
    v_out[: i_m + 1] = vs[: i_m + 1]

    # C^4 blend between the integrated arc and the asymptote
    rb = r[i_m : i_w + 1]
    tau = (rb - r_m) / width
    sig = smoothstep_c4(tau)
    dsig = smoothstep_c4_prime(tau) / width
    qt = _tail(np.maximum(rb, h), C, alpha, sqw)
    vt = _tail_derivative(np.maximum(rb, h), C, alpha, sqw)
    q_out[i_m : i_w + 1] = (1.0 - sig) * qs[i_m : i_w + 1] + sig * qt
    v_out[i_m : i_w + 1] = (
        (1.0 - sig) * vs[i_m : i_w + 1] + sig * vt
        + dsig * (qt - qs[i_m : i_w + 1])
    )

    if i_w < n_steps:
        rt = r[i_w + 1 :]
        q_out[i_w + 1 :] = _tail(rt, C, alpha, sqw)
        v_out[i_w + 1 :] = _tail_derivative(rt, C, alpha, sqw)
    return r, q_out, v_out, C


def _ode_residual(r, q, v, h, d, omega, terms):
    """Sup-norm of Q'' + (d-1)/r Q' - omega Q + g(Q) using 6th-order
    differences of the stored derivative (even/odd symmetry at the origin).

    4th order is not enough here: steep profiles put h^4/30 * Q^(6) at a
    few 1e-8 for the default step, masking real defects at the gate."""
    n = r.size
    qpp = np.empty(n)
    # interior, 6th order
    qpp[3:-3] = (
        v[6:] - 9.0 * v[5:-1] + 45.0 * v[4:-2]
        - 45.0 * v[2:-4] + 9.0 * v[1:-5] - v[:-6]
    ) / (60.0 * h)
    # origin rows fold in the odd extension v(-r) = -v(r)
    qpp[0] = (90.0 * v[1] - 18.0 * v[2] + 2.0 * v[3]) / (60.0 * h)
    qpp[1] = (-45.0 * v[0] - 9.0 * v[1] + 46.0 * v[2] - 9.0 * v[3] + v[4]) / (60.0 * h)
    qpp[2] = (9.0 * v[0] - 44.0 * v[1] + 45.0 * v[3] - 9.0 * v[4] + v[5]) / (60.0 * h)
    # outer edge: one-sided 2nd order on exponentially small values
    qpp[-3] = (v[-1] - v[-5]) / (4.0 * h)
    qpp[-2] = (v[-1] - v[-3]) / (2.0 * h)
    qpp[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)

    g = np.zeros_like(q)
    for mu, ex in terms:
        g += mu * np.sign(q) * np.abs(q) ** ex
    res = np.empty(n)
    res[0] = d * qpp[0] - (omega * q[0] - g[0])
    res[1:] = qpp[1:] + (d - 1.0) / r[1:] * v[1:] - omega * q[1:] + g[1:]
    return float(np.max(np.abs(res)))


def _radial_integral(r, values, d):
    return _SURFACE[d] * float(simpson(values * r ** (d - 1), x=r))


def _certificates(r, q, v, d, p, omega, which):
    m = _radial_integral(r, q**2, d)
    grad = _radial_integral(r, v**2, d)
    if which != "double":
        return m, grad, None, None
    mc = 2.0 * (d + 2.0) / d
    lp1 = _radial_integral(r, q ** (p + 1.0), d)
    lmc = _radial_integral(r, q**mc, d)
    e_val = 0.5 * grad - lp1 / (p + 1.0) + d / (2.0 * (d + 2.0)) * lmc
    s_omega = e_val + 0.5 * omega * m
    k_val = grad - d * (p - 1.0) / (2.0 * (p + 1.0)) * lp1 + d / (d + 2.0) * lmc
    return m, grad, s_omega, k_val


def solve_ground_state(
    mp: ModelParams,
    which: str = "double",
    guess=None,
    *,
    power=None,
    r_max: float | None = None,
    step: float | None = None,
) -> GroundStateSolution:
    """Shoot for the positive decaying radial profile.

    guess seeds the amplitude bracket (a profile is reduced to its peak);
    power overrides the exponent for which="single_power", allowing the
    boundary case power = 1 + 4/d that ModelParams itself excludes.

    Without a guess the solution is cached per process on (mp, which,
    power, r_max, step): equal requests return the same read-only object.
    A solve that raises is not cached; a guess always solves afresh.
    """
    if guess is None:
        return _solve_cached(mp, which, power, r_max, step)
    return _solve(mp, which, guess, power, r_max, step)


@lru_cache(maxsize=8)
def _solve_cached(mp, which, power, r_max, step) -> GroundStateSolution:
    return _solve(mp, which, None, power, r_max, step)


def _solve(mp, which, guess, power, r_max, step) -> GroundStateSolution:
    terms = _terms(mp, which, power)
    omega = 1.0 if which == "mass_critical" else mp.omega
    d = mp.d
    sqw = math.sqrt(omega)
    if r_max is None:
        r_max = 30.0 / sqw
    if step is None:
        # RK4 trajectory defect scales like step^4 and must stay well
        # under the 1e-8 * Q(0) residual gate for steep double-well peaks
        step = 0.0025 / sqw
    n_steps = max(int(round(r_max / step)), 64)
    step = r_max / n_steps

    p_main = terms[0][1]
    a0 = ((p_main + 1.0) * omega / 2.0) ** (1.0 / (p_main - 1.0))
    if guess is not None:
        arr = np.asarray(guess, dtype=float)
        a0 = float(np.max(np.abs(arr)))
        if a0 <= 0:
            raise ValueError("guess must have a positive peak")

    amps = np.geomspace(a0 / 4.0, a0 * 4.0, 33)
    cls = [_classify(a, step, n_steps, d, omega, terms) for a in amps]
    pairs = [
        (amps[i], amps[i + 1])
        for i in range(len(amps) - 1)
        if cls[i] < 0 and cls[i + 1] > 0
    ]
    if not pairs:
        raise BracketError(
            f"no undershoot/overshoot transition in amplitude bracket "
            f"[{a0 / 4.0:.8g}, {a0 * 4.0:.8g}] "
            f"(which={which!r}, d={d}, omega={omega:g})"
        )

    best = None
    for lo, hi in pairs:
        a_star = _bisect_amplitude(lo, hi, step, n_steps, d, omega, terms)
        r, q, v, c_tail = _build_profile(a_star, step, n_steps, d, omega, terms)
        m, grad, s_omega, k_val = _certificates(r, q, v, d, mp.p, omega, which)
        cand = (s_omega if s_omega is not None else a_star, a_star, r, q, v,
                c_tail, m, grad, s_omega, k_val)
        if best is None or cand[0] < best[0]:
            best = cand
    _, a_star, r, q, v, c_tail, m, grad, s_omega, k_val = best

    residual = _ode_residual(r, q, v, step, d, omega, terms)
    for arr in (r, q, v):
        arr.setflags(write=False)
    gs = GroundStateSolution(
        which=which,
        omega=omega,
        params=mp,
        terms=terms,
        r=r,
        profile=q,
        derivative=v,
        amplitude=a_star,
        residual=residual,
        mass=m,
        grad_l2_sq=grad,
        m_omega=s_omega,
        K_value=k_val,
        tail_coefficient=c_tail,
        step=step,
        scan_amplitudes=tuple(float(a) for a in amps),
    )
    _validate(gs)
    return gs


def _validate(gs: GroundStateSolution):
    q = gs.profile
    a = gs.amplitude
    if not np.all(q > 0.0):
        raise ConvergenceError("profile is not strictly positive")
    if not np.all(np.diff(q) < a * 1e-14):
        raise ConvergenceError("profile is not decreasing")
    if q[-1] >= 1e-8 * q[0]:
        raise ConvergenceError(
            f"profile has not decayed at r_max: Q(R)/Q(0) = {q[-1] / q[0]:.3e}"
        )
    if gs.residual >= 1e-8 * q[0]:
        raise ConvergenceError(
            f"stationary-equation residual {gs.residual:.3e} exceeds "
            f"1e-8 * Q(0) = {1e-8 * q[0]:.3e}"
        )
    if gs.K_value is not None:
        scale = gs.grad_l2_sq + 1.0
        if abs(gs.K_value) >= 1e-6 * scale:
            raise ConvergenceError(
                f"constraint defect |K| = {abs(gs.K_value):.3e} exceeds 1e-6 * "
                f"(grad^2 + 1) = {1e-6 * scale:.3e}"
            )
    if gs.m_omega is not None and not gs.m_omega > 0:
        raise ConvergenceError(f"action threshold is not positive: {gs.m_omega}")


# -- thresholds and identities ------------------------------------------------

Threshold = namedtuple("Threshold", ["m_omega", "q_mass"])


def threshold(gs: GroundStateSolution) -> Threshold:
    """(action threshold, mass threshold).  m_omega is None unless the
    double-nonlinearity profile was solved; q_mass = ||Q||_L2^2 always."""
    return Threshold(gs.m_omega, gs.mass)


@dataclass(frozen=True)
class PohozaevReport:
    nehari_residual: float
    pohozaev_residual: float
    constraint_residual: float | None
    tolerance: float
    passed: bool


def pohozaev_check(gs: GroundStateSolution, tolerance: float = 1e-6) -> PohozaevReport:
    """Certificate identities from multiplying the stationary equation by Q
    and by r Q'.  Relative residuals above `tolerance` fail the report; a
    zero profile is rejected outright."""
    q = gs.profile
    if not np.any(q != 0.0):
        raise ValueError("zero profile is not a ground-state candidate")
    r, v, d, omega = gs.r, gs.derivative, gs.params.d, gs.omega

    m = _radial_integral(r, q**2, d)
    grad = _radial_integral(r, v**2, d)
    powers = [
        (mu, ex, _radial_integral(r, np.abs(q) ** (ex + 1.0), d))
        for mu, ex in gs.terms
    ]

    nehari = grad + omega * m - sum(mu * val for mu, ex, val in powers)
    poho = (
        0.5 * (d - 2.0) * grad
        + 0.5 * d * omega * m
        - d * sum(mu * val / (ex + 1.0) for mu, ex, val in powers)
    )
    scale = grad + omega * m + sum(abs(val) for _, _, val in powers)
    nehari_rel = abs(nehari) / scale
    poho_rel = abs(poho) / scale

    constraint_rel = None
    if gs.which == "double":
        p = gs.params.p
        mc = 2.0 * (d + 2.0) / d
        lp1 = next(val for mu, ex, val in powers if ex == p)
        lmc = next(val for mu, ex, val in powers if ex != p)
        k_val = grad - d * (p - 1.0) / (2.0 * (p + 1.0)) * lp1 + d / (d + 2.0) * lmc
        constraint_rel = abs(k_val) / scale

    checks = [nehari_rel, poho_rel] + ([constraint_rel] if constraint_rel is not None else [])
    return PohozaevReport(
        nehari_residual=nehari_rel,
        pohozaev_residual=poho_rel,
        constraint_residual=constraint_rel,
        tolerance=tolerance,
        passed=all(c < tolerance for c in checks),
    )


# -- grid interpolation -------------------------------------------------------

def ground_state_field(gs: GroundStateSolution, grid: GridSpec) -> ComplexField:
    """Radial profile interpolated onto the full lattice (cubic spline inside
    the solved range, analytic asymptote beyond it)."""
    if grid.d != gs.params.d:
        raise ValueError(
            f"grid dimension {grid.d} does not match profile dimension {gs.params.d}"
        )
    spline = CubicSpline(
        gs.r, gs.profile, bc_type=((1, 0.0), (1, float(gs.derivative[-1])))
    )
    rr = grid.radius
    alpha = 0.5 * (gs.params.d - 1.0)
    sqw = math.sqrt(gs.omega)
    inside = rr <= gs.r[-1]
    vals = np.empty(grid.shape)
    vals[inside] = spline(rr[inside])
    if np.any(~inside):
        vals[~inside] = _tail(rr[~inside], gs.tail_coefficient, alpha, sqw)
    return ComplexField(grid, vals.astype(np.complex128))


# -- independent route: constrained descent on the spectral grid --------------

def _nehari_rescale(q, dv, k2_spec, omega, terms):
    """Amplitude c > 0 with <S'(c q), c q> = 0."""
    qhat = np.fft.fftn(q)
    grad = float(np.sum(k2_spec * np.abs(qhat) ** 2)) / q.size * dv
    m = float(np.sum(np.abs(q) ** 2) * dv)
    quad = grad + omega * m
    ints = [(mu, ex, float(np.sum(np.abs(q) ** (ex + 1.0)) * dv)) for mu, ex in terms]

    def h(c):
        return quad - sum(mu * c ** (ex - 1.0) * val for mu, ex, val in ints)

    hi = 1.0
    for _ in range(200):
        if h(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("constraint rescale found no sign change")
    lo = hi / 2.0
    while h(lo) < 0.0:
        lo /= 2.0
        if lo < 1e-12:
            raise ConvergenceError("constraint rescale bracket collapsed")
    return brentq(h, lo, hi, xtol=1e-15, rtol=8.9e-16)


def ground_state_on_grid(
    mp: ModelParams,
    grid: GridSpec,
    which: str = "double",
    *,
    power=None,
    dtau: float = 0.4,
    tol: float = 1e-13,
    max_iter: int = 40000,
    guess=None,
):
    """Semi-implicit descent with per-step constraint renormalization.

    Returns (field, info) where info records iterations, the final update
    size, and the sup-norm residual of the stationary equation on the grid.
    """
    terms = _terms(mp, which, power)
    omega = 1.0 if which == "mass_critical" else mp.omega
    k2 = grid.k_squared
    dv = grid.cell_volume
    denom = 1.0 / (1.0 + dtau * (omega + k2))

    if guess is None:
        p_main = terms[0][1]
        a0 = ((p_main + 1.0) * omega / 2.0) ** (1.0 / (p_main - 1.0))
        q = a0 * np.exp(-0.25 * omega * grid.radius**2)
    else:
        q = np.abs(np.asarray(guess, dtype=float))
    q = q.astype(np.complex128)

    def g_of(qr):
        out = np.zeros_like(qr)
        for mu, ex in terms:
            out += mu * np.sign(qr) * np.abs(qr) ** ex
        return out

    change = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        qr = q.real
        rhs = qr + dtau * g_of(qr)
        qn = np.fft.ifftn(np.fft.fftn(rhs) * denom).real
        c = _nehari_rescale(qn, dv, k2, omega, terms)
        qn = c * qn
        change = float(np.max(np.abs(qn - qr))) / (dtau * float(np.max(np.abs(qn))))
        q = qn.astype(np.complex128)
        if change < tol:
            break

    qr = q.real
    lap = np.fft.ifftn(-k2 * np.fft.fftn(qr)).real
    res = float(np.max(np.abs(lap - omega * qr + g_of(qr))))
    info = {
        "iterations": it,
        "final_change": change,
        "residual": res,
        "omega": omega,
        "which": which,
    }
    return ComplexField(grid, q), info
