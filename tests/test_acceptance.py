"""End-to-end acceptance gates, one numbered test per release criterion.

Every test prints one summary line with its measured figures, asserts the
quantitative tolerances, and finally asserts its wall-clock budget.  Run
with -s (or read the captured stdout on failure) to see the figures.
"""

import itertools
import math
import time

import numpy as np

from nlslab.classifier import classify
from nlslab.functionals import (
    ModelParams,
    action_K_H,
    gn_quotient,
    mass,
    momentum,
)
from nlslab.groundstate import (
    ground_state_field,
    ground_state_on_grid,
    pohozaev_check,
    solve_ground_state,
)
from nlslab.propagator import StepperConfig, detect_blowup, evolve, scattering_proxy
from nlslab.spectral import (
    ComplexField,
    GridSpec,
    apply_multiplier,
    field_from_function,
    gradient_multiplier,
    k_squared_multiplier,
    make_grid,
    random_smooth_field,
    transform,
)
from nlslab.symmetry import SymmetryElement, apply_symmetry, spectral_translate
from nlslab.virial import VirialWeight, _whole_space_e2

MP1 = ModelParams(d=1, p=7.0, omega=1.0, equation="E1")
MP2 = ModelParams(d=1, p=7.0, omega=1.0, equation="E2")


def _finish(name, budget, t0, checks, detail):
    elapsed = time.monotonic() - t0
    ok = all(checks.values()) and elapsed <= budget
    print(
        f"acceptance {name}: {'PASS' if ok else 'FAIL'} "
        f"[{detail}] ({elapsed:.1f}s of {budget:.0f}s)"
    )
    for label, good in checks.items():
        assert good, f"{name}: {label}"
    assert elapsed <= budget, f"{name}: runtime {elapsed:.1f}s over {budget:.0f}s"


def _drift_stats(log):
    s0 = log.snapshots[0]
    mass_rel = max(abs(s.mass - s0.mass) for s in log.snapshots) / abs(s0.mass)
    energy_rel = max(abs(s.energy - s0.energy) for s in log.snapshots) / abs(s0.energy)
    mom_abs = max(
        max(abs(a - b) for a, b in zip(s.momentum, s0.momentum))
        for s in log.snapshots
    )
    return mass_rel, energy_rel, mom_abs


def test_01_spectral_identities():
    t0 = time.monotonic()
    worst = {"parseval": 0.0, "roundtrip": 0.0, "eigenvalue": 0.0}
    for d, n, hw in ((1, 256, 10.0), (2, 128, 8.0)):
        g = make_grid(d, n, hw)
        f = random_smooth_field(g, seed=3 + d)
        fhat = transform(f)
        p_in = float(np.sum(np.abs(f.values) ** 2))
        p_out = float(np.sum(np.abs(fhat.values) ** 2))
        worst["parseval"] = max(worst["parseval"], abs(p_in - p_out) / p_in)

        back = transform(fhat, "inverse")
        amp = float(np.max(np.abs(f.values)))
        worst["roundtrip"] = max(
            worst["roundtrip"], float(np.max(np.abs(back.values - f.values))) / amp
        )

        dk = math.pi / hw
        modes = (5,) if d == 1 else (5, -3)
        kvec = np.array([m * dk for m in modes])
        ksq = float(np.sum(kvec**2))
        wave = field_from_function(
            g, lambda *xs: np.exp(1j * sum(kv * xv for kv, xv in zip(kvec, xs)))
        )
        lap = apply_multiplier(wave, k_squared_multiplier(g))
        worst["eigenvalue"] = max(
            worst["eigenvalue"],
            float(np.max(np.abs(lap.values - ksq * wave.values))) / ksq,
        )
        for ax in range(d):
            der = apply_multiplier(wave, gradient_multiplier(g, ax))
            worst["eigenvalue"] = max(
                worst["eigenvalue"],
                float(np.max(np.abs(der.values - 1j * kvec[ax] * wave.values)))
                / (abs(kvec[ax]) + 1.0),
            )

    checks = {f"{k} rel <= 1e-12": v <= 1e-12 for k, v in worst.items()}
    _finish("spectral identities", 10.0, t0, checks,
            ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_02_quintic_soliton_matches_the_closed_form():
    t0 = time.monotonic()
    gs = solve_ground_state(MP1, which="single_power", power=5.0)
    exact = 3.0**0.25 / np.cosh(2.0 * gs.r) ** 0.5
    sup_err = float(np.max(np.abs(gs.profile - exact)))
    mass_err = abs(gs.mass - math.sqrt(3.0) * math.pi / 2.0)
    checks = {
        "sup error < 1e-6": sup_err < 1e-6,
        "mass error < 1e-6": mass_err < 1e-6,
    }
    _finish("closed-form soliton", 30.0, t0, checks,
            f"sup {sup_err:.1e}, mass {mass_err:.1e}")


def test_03_double_nonlinearity_ground_state_certificates():
    t0 = time.monotonic()
    gs = solve_ground_state(MP1, which="double")
    rep = pohozaev_check(gs, tolerance=1e-6)
    pohozaev_worst = max(
        rep.nehari_residual, rep.pohozaev_residual, rep.constraint_residual or 0.0
    )
    grid = GridSpec(d=1, n_per_axis=1024, half_width=30.0)
    q2, info = ground_state_on_grid(MP1, grid, which="double")
    peak_rel = abs(float(np.max(np.abs(q2.values))) - gs.amplitude) / gs.amplitude
    checks = {
        "equation residual < 1e-8": gs.residual < 1e-8,
        "|K| < 1e-6": abs(gs.K_value) < 1e-6,
        "Pohozaev residuals < 1e-6": rep.passed,
        "route agreement < 1e-6": peak_rel < 1e-6,
        "positive threshold": gs.m_omega > 0,
    }
    _finish("double ground state", 120.0, t0, checks,
            f"residual {gs.residual:.1e}, |K| {abs(gs.K_value):.1e}, "
            f"pohozaev {pohozaev_worst:.1e}, routes {peak_rel:.1e}, "
            f"m_omega {gs.m_omega:.6f}")


def test_04_action_floor_over_the_nonpositive_k_corpus(double_gs, corpus):
    t0 = time.monotonic()
    m_omega = double_gs.m_omega
    h_values, k_values = [], []
    for f in corpus:
        av = action_K_H(f, MP1)
        k_values.append(av.k_value)
        h_values.append(av.h_omega)
    min_h = min(h_values)
    checks = {
        "corpus size >= 200": len(corpus) >= 200,
        "all K <= 0": max(k_values) <= 0.0,
        "min H >= m_omega(1 - 1e-3)": min_h >= m_omega * (1.0 - 1e-3),
        "minimum attained by gs member within 1%": h_values[0] <= min_h * 1.01,
    }
    _finish("variational floor", 120.0, t0, checks,
            f"size {len(h_values)}, min H/m_omega {min_h / m_omega:.8f}, "
            f"gs member H/min {h_values[0] / min_h:.6f}")


def test_05_conserved_quantities_and_stepper_order():
    t0 = time.monotonic()
    g = make_grid(1, 4096, 300.0)
    k0 = 50.0 * math.pi / 300.0
    u0 = field_from_function(
        g, lambda x: 0.1 * np.exp(-(x**2)) * np.exp(1j * k0 * x)
    )
    logs = {}
    for dt, every in ((1e-3, 100), (5e-4, 200)):
        cfg = StepperConfig(dt=dt, t_final=20.0, snapshot_every=every)
        logs[dt] = evolve(u0, MP1, cfg)
    mass_rel, energy_rel, mom_abs = _drift_stats(logs[1e-3])
    _, energy_fine, _ = _drift_stats(logs[5e-4])
    ratio = energy_rel / energy_fine
    checks = {
        "both runs completed": all(l.outcome == "completed" for l in logs.values()),
        "mass drift < 1e-10": mass_rel < 1e-10,
        "energy drift < 1e-7": energy_rel < 1e-7,
        "momentum drift < 1e-8": mom_abs < 1e-8,
        "halving dt cuts energy drift by >= 3.6": ratio >= 3.6,
    }
    _finish("conservation", 120.0, t0, checks,
            f"mass {mass_rel:.1e}, energy {energy_rel:.1e}, "
            f"momentum {mom_abs:.1e}, dt ratio {ratio:.2f}")


def test_06_standing_wave_holds_its_modulus(double_gs):
    t0 = time.monotonic()
    grid = GridSpec(d=1, n_per_axis=1024, half_width=30.0)
    q = ground_state_field(double_gs, grid)
    ref = np.abs(q.values)
    ref_norm = float(np.sqrt(np.sum(ref**2)))
    cfg = StepperConfig(dt=1e-5, t_final=1.0, snapshot_every=1000,
                        checkpoint_every=5000)
    log = evolve(q, MP1, cfg)
    fields = [f for _, f in log.checkpoints] + [log.final_state]
    worst = max(
        float(np.sqrt(np.sum((np.abs(f.values) - ref) ** 2))) / ref_norm
        for f in fields
    )
    checks = {
        "completed": log.outcome == "completed",
        "modulus deviation < 1e-6": worst < 1e-6,
    }
    _finish("standing wave", 60.0, t0, checks, f"worst rel deviation {worst:.2e}")


def test_07_virial_identity_and_derivative_order():
    t0 = time.monotonic()
    grid = GridSpec(d=1, n_per_axis=2048, half_width=40.0)
    u0 = field_from_function(grid, lambda x: 1.2 * np.exp(-(x**2)))
    weight = VirialWeight(grid, 16.0)
    identity_worst = 0.0
    fd_errs = {}
    for every in (50, 25):
        cfg = StepperConfig(dt=1e-4, t_final=0.3, snapshot_every=every)
        log = evolve(u0, MP1, cfg, virial_weight=weight)
        assert log.outcome == "completed"
        identity_worst = max(
            identity_worst,
            max(abs(r.v_double_prime - 8.0 * s.scaling_derivative)
                for r, s in zip(log.virial_rows, log.snapshots)),
        )
        delta = every * 1e-4
        vals = [r.value for r in log.virial_rows]
        primes = [r.v_prime for r in log.virial_rows]
        fd_errs[every] = max(
            abs((vals[j + 1] - vals[j - 1]) / (2.0 * delta) - primes[j])
            for j in range(1, len(vals) - 1)
        )
    order = math.log2(fd_errs[50] / fd_errs[25])
    checks = {
        "|V'' - 8K| < 1e-8 at every snapshot": identity_worst < 1e-8,
        "centered-difference order >= 1.9": order >= 1.9,
    }
    _finish("virial chain", 120.0, t0, checks,
            f"identity {identity_worst:.1e}, observed order {order:.3f}")


def test_08_dichotomy_between_scattering_and_blowup(double_gs):
    t0 = time.monotonic()
    m_omega = double_gs.m_omega
    checks = {}
    details = []

    big = make_grid(1, 8192, 700.0)
    q_big = ground_state_field(double_gs, big)
    plus_cfg = StepperConfig(dt=1e-3, t_final=40.0, snapshot_every=200,
                             checkpoint_every=2000,
                             tail_fraction_max=1e-5, edge_mass_max=1e-5)
    for c in (0.4, 0.7, 0.9):
        u0 = ComplexField(big, c * q_big.values)
        checks[f"c={c} labeled A_plus"] = (
            classify(u0, MP1, double_gs).set_label == "A_plus"
        )
        log = evolve(u0, MP1, plus_cfg)
        checks[f"c={c} completed"] = log.outcome == "completed"
        rep = scattering_proxy(log) if log.outcome == "completed" else None
        checks[f"c={c} proxy PASS"] = bool(rep and rep.passed)
        if rep:
            details.append(f"c={c} late/mean {rep.late_rate / rep.mean_rate:.4f}")

    minus_cfg = StepperConfig(dt=1e-5, t_final=1.5, snapshot_every=25,
                              blowup_grad_factor=10.0,
                              tail_fraction_max=1e-3, edge_mass_max=1e-8)
    for c in (1.1, 1.3):
        det = {}
        violations = 0
        for n in (1024, 2048):
            g = make_grid(1, n, 15.0)
            u0 = ComplexField(g, c * ground_state_field(double_gs, g).values)
            if n == 1024:
                checks[f"c={c} labeled A_minus"] = (
                    classify(u0, MP1, double_gs).set_label == "A_minus"
                )
            log = evolve(u0, MP1, minus_cfg)
            rep = detect_blowup(log)
            checks[f"c={c} n={n} blow-up detected"] = (
                log.outcome == "blowup_detected" and rep.detected
            )
            det[n] = rep.time
            violations += sum(
                1 for s in log.snapshots[:-1]
                if not s.scaling_derivative < -(m_omega - s.action)
            )
        if det[1024] is not None and det[2048] is not None:
            agree = abs(det[1024] - det[2048]) / det[2048]
            checks[f"c={c} detection times within 10%"] = agree <= 0.10
            details.append(
                f"c={c} t_det {det[1024]:.5f}/{det[2048]:.5f} ({100 * agree:.1f}%)"
            )
        checks[f"c={c} K < -(m_omega - S) pre-abort"] = violations == 0

    _finish("dichotomy study", 900.0, t0, checks, "; ".join(details))


def test_09_mass_threshold_split(quintic_gs):
    t0 = time.monotonic()
    mq = quintic_gs.mass
    big = make_grid(1, 8192, 700.0)
    cfg = StepperConfig(dt=1e-3, t_final=40.0, snapshot_every=200,
                        checkpoint_every=2000,
                        tail_fraction_max=1e-5, edge_mass_max=1e-5)
    checks = {}

    amp = math.sqrt(0.8 * mq / math.sqrt(math.pi / 2.0))
    u_sub = field_from_function(big, lambda x: amp * np.exp(-(x**2)))
    log = evolve(u_sub, MP2, cfg)
    checks["sub-threshold completed"] = log.outcome == "completed"
    rep = scattering_proxy(log) if log.outcome == "completed" else None
    checks["sub-threshold proxy PASS"] = bool(rep and rep.passed)
    margin = min(
        _whole_space_e2(MP2, s) - 8.0 * (1.0 - (s.mass / mq) ** 2) * s.grad_l2_sq
        for s in log.snapshots
    )
    checks["whole-space V'' lower bound within 1e-8"] = margin >= -1e-8

    k0 = 56.0 * math.pi / 700.0
    a = math.sqrt(0.375) * 3.0**0.25
    u_super = field_from_function(
        big, lambda x: a / np.cosh(0.5 * x) ** 0.5 * np.exp(1j * k0 * x)
    )
    checks["boosted soliton carries 1.5 M(Q)"] = abs(mass(u_super) - 1.5 * mq) < 1e-9 * mq
    log2 = evolve(u_super, MP2, cfg)
    checks["above-threshold completed"] = log2.outcome == "completed"
    rep2 = scattering_proxy(log2) if log2.outcome == "completed" else None
    checks["above-threshold proxy FAIL"] = bool(rep2) and not rep2.passed

    detail = f"bound margin {margin:+.2e}"
    if rep:
        detail = f"sub late/mean {rep.late_rate / rep.mean_rate:.4f}, " + detail
    if rep2:
        detail += f"; super late/mean {rep2.late_rate / rep2.mean_rate:.4f}"
    _finish("mass threshold", 600.0, t0, checks, detail)


def test_10_symmetry_identities():
    t0 = time.monotonic()
    grid = GridSpec(d=1, n_per_axis=512, half_width=15.0)
    f = field_from_function(
        grid, lambda x: 0.8 * np.exp(-(x**2) / 2.0) * np.exp(0.6j * x**2)
    )
    m0 = mass(f)
    dk = math.pi / grid.half_width
    iso_worst = 0.0
    for theta, h, tt, x0, xi in itertools.product(
        (0.0, 1.3), (1.0, 2.0, 0.5), (0.0, 0.4), (0.0, 3.0 * grid.dx),
        (0.0, 6.0 * dk),
    ):
        out = apply_symmetry(
            f, SymmetryElement(theta=theta, h=h, t0=tt, x0=(x0,), xi=(xi,))
        )
        iso_worst = max(iso_worst, abs(mass(out) - m0) / m0)

    xi0 = 5.0 * dk
    boosted = apply_symmetry(f, SymmetryElement(xi=(xi0,)))
    shift = action_K_H(boosted, MP1).k_value - action_K_H(f, MP1).k_value
    k_err = abs(shift - (xi0**2 * m0 + 2.0 * xi0 * momentum(f)[0]))

    g2 = GridSpec(d=1, n_per_axis=512, half_width=20.0)
    u0 = field_from_function(g2, lambda x: 0.5 * np.exp(-(x**2)))
    xi1 = 12.0 * math.pi / 20.0
    t_final = 0.2
    cfg = StepperConfig(dt=1e-3, t_final=t_final, snapshot_every=50,
                        tail_fraction_max=1.0, edge_mass_max=1.0)
    lhs = evolve(apply_symmetry(u0, SymmetryElement(xi=(xi1,))), MP1, cfg).final_state
    plain = evolve(u0, MP1, cfg).final_state
    moved = spectral_translate(plain, 2.0 * xi1 * t_final)
    rhs = np.exp(1j * (xi1 * g2.coords[0] - xi1**2 * t_final)) * moved.values
    defect = float(np.sqrt(np.sum(np.abs(lhs.values - rhs) ** 2) * g2.cell_volume))

    checks = {
        "L2 isometry < 1e-10": iso_worst < 1e-10,
        "boost K shift < 1e-8": k_err < 1e-8,
        "Galilean covariance < 1e-6": defect < 1e-6,
    }
    _finish("symmetry identities", 120.0, t0, checks,
            f"isometry {iso_worst:.1e}, K shift {k_err:.1e}, covariance {defect:.1e}")


def test_11_sharp_interpolation_bound_over_the_corpus(quintic_gs, corpus):
    t0 = time.monotonic()
    bound = 3.0 / quintic_gs.mass**2
    worst = max(gn_quotient(f) for f in corpus)
    grid = GridSpec(d=1, n_per_axis=1024, half_width=30.0)
    q = ground_state_field(quintic_gs, grid)
    eq_rel = abs(gn_quotient(q) - bound) / bound
    checks = {
        "corpus <= bound(1 + 1e-6)": worst <= bound * (1.0 + 1e-6),
        "equality at the critical soliton < 1e-4": eq_rel < 1e-4,
    }
    _finish("sharp interpolation bound", 60.0, t0, checks,
            f"max quotient/bound {worst / bound:.6f}, equality defect {eq_rel:.1e}")
