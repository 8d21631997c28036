"""Radial bound-state profiles and variational thresholds.

The stationary problem solved here is

    Q'' + (d-1)/r Q' = omega*Q - g(Q),    Q'(0) = 0,  Q(r) -> 0,

with the positive decaying solution sought for three nonlinearities:

    which = "double":         g(Q) = |Q|^(p-1) Q - |Q|^(4/d) Q
    which = "mass_critical":  g(Q) = |Q|^(4/d) Q           (omega fixed at 1)
    which = "single_power":   g(Q) = |Q|^(power-1) Q

The primary method is shooting on the amplitude Q(0) with a fixed-step RK4
integrator, between undershoot (profile turns and grows) and overshoot
(profile crosses zero).  The initial bracket is a factor of four around the
closed-form single-power amplitude ((p+1) omega / 2)^(1/(p-1)).  Every sign
change found in a 33-point scan of the bracket is searched; if several
candidates appear, the one with the smallest action is reported and the
scan amplitudes are kept for inspection.

The search is bracketed Illinois (Dowell & Jarratt, BIT 11 (1971)) on a
miss distance read from each shot's stop event: the growing mode's
coefficient, -Q^2 r^(d-1) where Q' turns positive and +Q'^2 r^(d-1) where
Q crosses zero, close to linear in a - a* near the root.  The scan's stop
states seed it, so its bracket ends are not shot again.  A point that is
not strictly inside the bracket is replaced by the midpoint.  Only a
shot's class (over or under) picks the end it replaces, and the search
stops only when the ends are adjacent floats, returning their midpoint.
So where the class flips once at float resolution, the amplitude is
bitwise the one plain bisection finds, in some 8-25 shots instead of 49.

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
and derivative arrays are read-only; a solve that raises leaves nothing
behind.  A solution also keeps what is derived from it on first use:
the encoded rows of its groundstate.csv, so the runs sharing it format
that file once (about 0.64 MB of chunks per written solution), and the
SHA-256 digest a verdict carries.  The digest comes from CPython's
built-in module (_sha2 from 3.12, _sha256 before; hashlib only where
neither exists), because hashlib loads and starts OpenSSL, some 3.6 MB
resident in every run process, for one hash per solution.

A second, independent route (ground_state_on_grid) runs a semi-implicit
descent on the periodic spectral grid from a Gaussian seed, re-normalized
each step onto the constraint <S'(Q), Q> = 0, with a fixed pseudo-time
step, stopping size and iteration cap.  The rescale's root is found by
the same _search_amplitude, with -<S'(c Q), c Q> as its miss.  Shooting
and descent agree on Q(0) to about 1e-8 relative in practice; tests
demand 1e-6.

The radial integrals (composite Simpson) and the cubic Hermite interpolant
that samples Q onto a lattice are computed in this module, not by scipy:
every run solves and samples one profile, and importing scipy.integrate
and scipy.interpolate cost more than the rest of a short run's set-up.
Both evaluate scipy's own formulas in scipy's order (simpson's non-uniform
spacing rule with its even-count end correction; CubicHermiteSpline's
coefficients through the stored Q and Q', with PPoly's interval search and
ascending-power sum), so certificates and sampled fields are bitwise what
scipy gives; the tests compare them.  The interpolant takes the solve's
own Q' at every node, so it solves no system and takes any node spacing.
Nothing here imports scipy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .functionals import ModelParams, _action, _energy, _scaling_derivative
from .spectral import ComplexField, GridSpec
from .virial import smoothstep_c4, smoothstep_c4_prime

# CPython's built-in SHA-256, not hashlib's OpenSSL one (module docstring)
try:
    from _sha2 import sha256 as _sha256        # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "GroundStateSolution",
    "BracketError",
    "ConvergenceError",
    "PohozaevReport",
    "solve_ground_state",
    "ground_state_on_grid",
    "ground_state_field",
    "pohozaev_check",
]

# surface measure of the unit sphere in R^d
_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi, 4: 2.0 * math.pi**2}

_WHICH = ("double", "mass_critical", "single_power")

_TAIL_MATCH_FRACTION = 3e-6   # graft the asymptote where Q/Q(0) falls to this
_BLEND_LENGTHS = 3.0          # blend window in units of the decay length
# groundstate.csv rows per formatted chunk: a chunk's row strings and float
# lists are the formatting's transient, which a run's first write adds to
# what its march left in the heap
_CSV_ROWS = 512

# shooting integrations and wall seconds of every solve in this process
_spent = {"shots": 0, "seconds": 0.0}


class BracketError(RuntimeError):
    """Shooting scan found no undershoot/overshoot sign change."""


class ConvergenceError(RuntimeError):
    """Solver finished without meeting its accuracy contract."""


def _terms(mp: ModelParams, which: str, power) -> tuple:
    """((mu, exponent), ...) for g(Q) = sum mu |Q|^(exponent-1) Q; power
    is single_power's exponent and refused with any other which.  The
    double terms carry E1's signs, so an E2 model's double is refused."""
    if power is not None and which != "single_power":
        raise ValueError(f"power sets the single_power exponent, not {which!r}'s")
    if which == "double" and mp.equation != "E1":
        raise ValueError(f"{mp.equation} has no double profile: its terms carry E1's signs")
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


def _g(q: np.ndarray, terms: tuple) -> np.ndarray:
    """g(q) = sum mu sign(q) |q|^ex over terms, elementwise on real samples."""
    out = np.zeros_like(q)
    for mu, ex in terms:
        out += mu * np.sign(q) * np.abs(q) ** ex
    return out


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
    shots: int = 0

    @cached_property
    def _digest(self) -> str:
        """SHA-256 hex digest of the profile and its defining parameters,
        computed on first use and kept with the solution."""
        h = _sha256()
        h.update(f"{self.which}:{self.params.d}:{self.params.p!r}:{self.omega!r}".encode())
        h.update(self.r.tobytes())
        h.update(self.profile.tobytes())
        return h.hexdigest()

    @cached_property
    def _csv_chunks(self) -> tuple:
        """groundstate.csv as encoded chunks, the header and then
        _CSV_ROWS rows each; formatted on first write and kept with the
        solution, so every run sharing it writes the same bytes without
        formatting them again.  Kept unjoined: a joined copy would be a
        second transient of the whole file."""
        chunks = [b"r,profile,derivative\n"]
        for i in range(0, len(self.r), _CSV_ROWS):
            part = slice(i, i + _CSV_ROWS)
            chunks.append(_csv_rows(self.r[part], self.profile[part], self.derivative[part]))
        return tuple(chunks)


def _csv_rows(r, q, v) -> bytes:
    # repr gives each float's shortest round-trip form
    rows = zip(r.tolist(), q.tolist(), v.tolist())
    return "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows).encode()


# -- shooting -----------------------------------------------------------------

def _integrate(a, h, n_steps, d, omega, terms, record=False):
    """Fixed-step RK4 outward from r=0.

    Returns (cls, i_stop, qs, vs): cls = +1 if Q crossed zero (amplitude too
    large), -1 if Q turned upward while positive (too small) or no event.
    With record set, qs and vs are arrays filled through i_stop; without,
    they are the floats Q and Q' at step i_stop, the stop state.

    The acceleration Q'' = omega Q - g(Q) - (d-1)/r Q' (at r = 0,
    (omega Q - g(Q))/d), with g(x) = 0.0 + sum mu copysign(|x|^ex, x) over
    the one or two terms, is written out in each stage instead of called:
    a solve runs some 50-110 k steps.  Each stage keeps the operations and
    their order, and the scalar float ** (libm pow; numpy's power differs
    from it in the last bit on some inputs).  terms are _terms' own, mu = 1
    then mu = -1, so at x > 0 the stage takes g(x) = x**e1 (- x**e2), the
    same float: 0.0 + y is y for y >= 0, a multiply by 1 is exact, and
    y + (-1 * z) is y - z.  Elsewhere it keeps the copysign form.
    """
    q = float(a)
    v = 0.0
    dm1 = d - 1.0
    copysign = math.copysign
    (mu1, e1), *more = terms
    two = bool(more)
    if two:
        ((mu2, e2),) = more
    if mu1 != 1.0 or two and mu2 != -1.0:
        raise ValueError(f"shooting takes terms with mu = 1 then mu = -1, got {terms}")
    if record:
        qs = np.full(n_steps + 1, q)
        vs = np.zeros(n_steps + 1)
    # from an equilibrium, omega a - g(a) == 0.0, every stage's slope is
    # 0.0 and every step the identity: the shot reaches r_max with no event
    at_rest = q > 0.0 and omega * q - (q ** e1 - q ** e2 if two else q ** e1) == 0.0

    cls = -1
    i_stop = n_steps
    half = 0.5 * h
    for i in range(0 if at_rest else n_steps):
        r = i * h
        rh = r + half
        # stage 1, at r (the only stage that can sit at r = 0)
        if q > 0.0:
            gq = q ** e1 - q ** e2 if two else q ** e1
        else:
            gq = 0.0 + mu1 * copysign(abs(q) ** e1, q)
            if two:
                gq += mu2 * copysign(abs(q) ** e2, q)
        k1v = omega * q - gq
        k1v = k1v - dm1 * v / r if r > 0.0 else k1v / d
        # stage 2, at r + h/2
        q2 = q + half * v
        v2 = v + half * k1v
        if q2 > 0.0:
            gq = q2 ** e1 - q2 ** e2 if two else q2 ** e1
        else:
            gq = 0.0 + mu1 * copysign(abs(q2) ** e1, q2)
            if two:
                gq += mu2 * copysign(abs(q2) ** e2, q2)
        k2v = omega * q2 - gq - dm1 * v2 / rh
        # stage 3, at r + h/2
        q3 = q + half * v2
        v3 = v + half * k2v
        if q3 > 0.0:
            gq = q3 ** e1 - q3 ** e2 if two else q3 ** e1
        else:
            gq = 0.0 + mu1 * copysign(abs(q3) ** e1, q3)
            if two:
                gq += mu2 * copysign(abs(q3) ** e2, q3)
        k3v = omega * q3 - gq - dm1 * v3 / rh
        # stage 4, at r + h
        q4 = q + h * v3
        v4 = v + h * k3v
        if q4 > 0.0:
            gq = q4 ** e1 - q4 ** e2 if two else q4 ** e1
        else:
            gq = 0.0 + mu1 * copysign(abs(q4) ** e1, q4)
            if two:
                gq += mu2 * copysign(abs(q4) ** e2, q4)
        k4v = omega * q4 - gq - dm1 * v4 / (r + h)
        q += h * (v + 2.0 * (v2 + v3) + v4) / 6.0
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
    if record:
        return cls, i_stop, qs, vs
    return cls, i_stop, q, v


def _shoot(a, h, n_steps, d, omega, terms):
    """(cls, miss) of one shot from amplitude a.  miss is the growing-mode
    coefficient read at the stop event, signed by cls: +Q'^2 r^(d-1) where
    Q crossed zero, -Q^2 r^(d-1) where Q' turned positive (or at r_max).
    Near the root a* it is close to linear in a - a*."""
    cls, i_stop, q, v = _integrate(a, h, n_steps, d, omega, terms)
    return cls, (v * v if cls > 0 else -q * q) * (i_stop * h) ** (d - 1)


def _search_amplitude(lo, miss_lo, hi, miss_hi, shoot):
    """Shrink the bracket [lo, hi] (lo undershoots, hi overshoots) to
    adjacent floats; returns (their midpoint, shots taken).

    Each shot sits at the Illinois point on the two misses (regula falsi
    that halves the kept end's miss when one end is replaced twice in a
    row), or at the midpoint when that point is not strictly inside.  The
    shot's class alone picks the end it replaces, as in bisection."""
    shots = 0
    kept = 0   # +1 after hi was replaced, -1 after lo
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return mid, shots
        a = mid
        span = miss_hi - miss_lo
        if span > 0.0:
            a = hi - miss_hi * ((hi - lo) / span)
            if not (lo < a < hi):
                a = mid
        cls, miss = shoot(a)
        shots += 1
        if cls > 0:
            hi, miss_hi = a, miss
            if kept > 0:
                miss_lo *= 0.5
            kept = 1
        else:
            lo, miss_lo = a, miss
            if kept < 0:
                miss_hi *= 0.5
            kept = -1


def _tail(r, C, alpha, sqw):
    return C * r ** (-alpha) * np.exp(-sqw * r) if alpha else C * np.exp(-sqw * r)


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
            "amplitude search failed to converge"
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

    rt = r[i_w + 1 :]   # empty where the blend reaches r_max
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

    g = _g(q, terms)
    res = np.empty(n)
    res[0] = d * qpp[0] - (omega * q[0] - g[0])
    res[1:] = qpp[1:] + (d - 1.0) / r[1:] * v[1:] - omega * q[1:] + g[1:]
    return float(np.max(np.abs(res)))


def _simpson(y, x):
    """Composite Simpson's rule, evaluated as scipy.integrate.simpson(y, x=x)
    does: its non-uniform spacing formula summed by one np.sum, and for an
    even sample count (at least 4) the rule on all but the last interval
    plus Cartwright's correction for that interval."""
    n = y.size
    h = np.diff(x)
    stop = n - 2 if n % 2 else n - 3
    h0 = h[0:stop:2]
    h1 = h[1 : stop + 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    result = np.sum(
        hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                      + y[1 : stop + 1 : 2] * (hsum * (hsum / hprod))
                      + y[2 : stop + 2 : 2] * (2.0 - h0divh1))
    )
    if n % 2 == 0:
        # 0-d arrays, as scipy has them: numpy's ** on them is not libm's
        h0, h1 = np.squeeze(h[-2:-1]), np.squeeze(h[-1:])
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def _radial_integral(r, values, d):
    return _SURFACE[d] * float(_simpson(values * r ** (d - 1), r))


def _certificates(r, q, v, mp, which):
    d = mp.d
    m = _radial_integral(r, q**2, d)
    grad = _radial_integral(r, v**2, d)
    if which != "double":
        return m, grad, None, None
    lp1 = _radial_integral(r, q ** (mp.p + 1.0), d)
    lmc = _radial_integral(r, q**mp.mc_power, d)
    s_omega = _action(mp, _energy(mp, grad, lp1, lmc), m)
    return m, grad, s_omega, _scaling_derivative(mp, grad, lp1, lmc)


def solve_ground_state(
    mp: ModelParams,
    which: str = "double",
    *,
    power=None,
    r_max: float | None = None,
    step: float | None = None,
) -> GroundStateSolution:
    """Shoot for the positive decaying radial profile.

    power overrides the exponent for which="single_power", allowing the
    boundary case power = 1 + 4/d that ModelParams itself excludes.

    The solution is cached per process on (mp, which, power, r_max,
    step): equal requests return the same read-only object.  A solve
    that raises is not cached.
    """
    return _solve_cached(mp, which, power, r_max, step)


@lru_cache(maxsize=8)
def _solve_cached(mp, which, power, r_max, step) -> GroundStateSolution:
    return _solve(mp, which, power, r_max, step)


def solve_cost() -> tuple:
    """(solves, shots, seconds) so far in this process: the cache misses of
    solve_ground_state, and the shooting integrations and wall time of
    every solve that returned."""
    return _solve_cached.cache_info().misses, _spent["shots"], _spent["seconds"]


def _solve(mp, which, power, r_max, step) -> GroundStateSolution:
    started = time.perf_counter()
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

    def shoot(a):
        return _shoot(a, step, n_steps, d, omega, terms)

    amps = np.geomspace(a0 / 4.0, a0 * 4.0, 33)
    scan = [shoot(a) for a in amps]
    shots = len(scan)
    pairs = [
        (amps[i], scan[i][1], amps[i + 1], scan[i + 1][1])
        for i in range(len(amps) - 1)
        if scan[i][0] < 0 and scan[i + 1][0] > 0
    ]
    if not pairs:
        raise BracketError(
            f"no undershoot/overshoot transition in amplitude bracket "
            f"[{a0 / 4.0:.8g}, {a0 * 4.0:.8g}] "
            f"(which={which!r}, d={d}, omega={omega:g})"
        )

    best = None
    for lo, miss_lo, hi, miss_hi in pairs:
        a_star, taken = _search_amplitude(lo, miss_lo, hi, miss_hi, shoot)
        shots += taken + 1   # the search and the profile's own shot
        r, q, v, c_tail = _build_profile(a_star, step, n_steps, d, omega, terms)
        m, grad, s_omega, k_val = _certificates(r, q, v, mp, which)
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
        shots=shots,
    )
    _validate(gs)
    _spent["shots"] += shots
    _spent["seconds"] += time.perf_counter() - started
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


# -- identities ---------------------------------------------------------------

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
        lp1 = next(val for mu, ex, val in powers if ex == p)
        lmc = next(val for mu, ex, val in powers if ex != p)
        constraint_rel = abs(_scaling_derivative(gs.params, grad, lp1, lmc)) / scale

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
    """Radial profile interpolated onto the full lattice (cubic Hermite
    through the stored Q and Q' inside the solved range, analytic
    asymptote beyond it)."""
    if grid.d != gs.params.d:
        raise ValueError(
            f"grid dimension {grid.d} does not match profile dimension {gs.params.d}"
        )
    rr = grid.radius
    alpha = 0.5 * (gs.params.d - 1.0)
    sqw = math.sqrt(gs.omega)
    inside = rr <= gs.r[-1]
    # the real samples go straight into the field's own complex array
    vals = np.empty(grid.shape, dtype=np.complex128)
    vals[inside] = _hermite_eval(gs.r, gs.profile, gs.derivative, rr[inside])
    vals[~inside] = _tail(rr[~inside], gs.tail_coefficient, alpha, sqw)
    return ComplexField._adopt(grid, vals)


def _hermite_eval(x, y, dydx, r):
    """scipy's CubicHermiteSpline(x, y, dydx)(r) for x[0] <= r <= x[-1]:
    PPoly's interval search (the piece i with x[i] <= r < x[i+1], the last
    one closed), CubicHermiteSpline's coefficients formed at those pieces
    alone, and the terms summed in ascending powers."""
    i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
    dx = x[i + 1] - x[i]
    slope = (y[i + 1] - y[i]) / dx
    t = (dydx[i] + dydx[i + 1] - 2 * slope) / dx
    z = r - x[i]
    return y[i] + dydx[i] * z + ((slope - dydx[i]) / dx - t) * (z * z) + t / dx * (z * z * z)


# -- independent route: constrained descent on the spectral grid --------------

def _nehari_rescale(q, dv, k2_spec, omega, terms):
    """Amplitude c > 0 with <S'(c q), c q> = 0: the root of h(c) below,
    bracketed by doubling and halving and then shrunk to adjacent floats
    by _search_amplitude, whose shot at c has miss -h(c)."""
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

    def shot(c):
        miss = -h(c)
        return (1 if miss > 0.0 else -1), miss

    return _search_amplitude(lo, -h(lo), hi, -h(hi), shot)[0]


def ground_state_on_grid(mp: ModelParams, grid: GridSpec, which: str = "double"):
    """Semi-implicit descent with per-step constraint renormalization,
    from the Gaussian of the closed-form single-power amplitude.

    Returns (field, info) where info records iterations, the final update
    size, and the sup-norm residual of the stationary equation on the grid.
    """
    terms = _terms(mp, which, None)
    omega = 1.0 if which == "mass_critical" else mp.omega
    k2 = grid.k_squared
    dv = grid.cell_volume
    # pseudo-time step, stopping update size and iteration cap
    dtau, tol, max_iter = 0.4, 1e-13, 40000
    denom = 1.0 / (1.0 + dtau * (omega + k2))

    p_main = terms[0][1]
    a0 = ((p_main + 1.0) * omega / 2.0) ** (1.0 / (p_main - 1.0))
    q = a0 * np.exp(-0.25 * omega * grid.radius**2)

    change = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        qn = np.fft.ifftn(np.fft.fftn(q + dtau * _g(q, terms)) * denom).real
        qn = _nehari_rescale(qn, dv, k2, omega, terms) * qn
        change = float(np.max(np.abs(qn - q))) / (dtau * float(np.max(np.abs(qn))))
        q = qn
        if change < tol:
            break

    lap = np.fft.ifftn(-k2 * np.fft.fftn(q)).real
    res = float(np.max(np.abs(lap - omega * q + _g(q, terms))))
    info = {
        "iterations": it,
        "final_change": change,
        "residual": res,
        "omega": omega,
        "which": which,
    }
    return ComplexField(grid, q), info
