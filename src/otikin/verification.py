"""Packaged verification checks: exact identities and property sweeps.

Each check is deterministic for a given seed (PCG64 via numpy's default_rng)
and returns a pass/fail record with the measured numbers, so failures are
diagnosable from the one-line report. The CLI ``verify`` subcommand groups
these checks into suites; the test bench runs all of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    ForceField,
    build_dynamical_plan,
    interpolate_at,
    metric_derivative_probe,
    moment_report,
    monge_mather_check,
    path_action,
    reparametrize,
    spline_forcing,
    vlasov_integrate,
)
from .measures import Coupling, DiscreteMeasure, plan_moments
from .phase import (
    PhaseState,
    optimal_time_point,
    spline_action,
    spline_from_endpoints,
    tilde_d_sq,
    tilde_dT_sq,
)
from .scenarios import (
    circle_measure,
    circle_shift_coupling_moments,
    crossing_ensemble,
    factor2_force_integral,
    factor2_trajectory,
    free_transport_pair,
    generic_positive_instance,
    harmonic_ensemble,
    harmonic_single,
    nonunique_two_atom_instance,
    opposite_pair,
    random_uniform_instance,
)
from .solver import (
    brute_force_oracle,
    cost_c,
    cost_tilde_c,
    detect_free_transport,
    solve_d,
    solve_fixed_T,
)

__all__ = ["CheckResult", "SUITES", "run_checks"]

H_LADDER = (0.2, 0.1, 0.05, 0.025)
PROBE_TIMES = (0.0, 0.3, 0.6)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0  # wall time of the check, set by ``run_checks``


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# 1. Closed-form consistency of the spline action and the pointwise costs.


def check_closed_form_consistency(seed: int = 42) -> CheckResult:
    rng = np.random.default_rng(seed)
    n_pairs = 10_000
    worst_action = 0.0
    worst_gap = 0.0
    grid_below = 0.0
    base_grid = np.logspace(-3.0, 3.0, 1000)
    for _ in range(n_pairs):
        n = int(rng.integers(1, 4))
        src = PhaseState(rng.normal(size=n), rng.normal(size=n))
        dst = PhaseState(rng.normal(size=n), rng.normal(size=n))
        T = float(np.exp(rng.uniform(np.log(1e-1), np.log(1e1))))
        ref = tilde_dT_sq(src, dst, T)
        act = spline_action(spline_from_endpoints(src.x, src.v, dst.x, dst.v, T), T)
        worst_action = max(worst_action, _rel_err(act, ref))

        inf_val = tilde_d_sq(src, dst)
        tag = optimal_time_point(src, dst)
        grid = base_grid
        if tag.is_finite:
            grid = np.concatenate([base_grid, np.linspace(0.9, 1.1, 41) * tag.value])
        gap = dst.x - src.x
        vsum = src.v + dst.v
        dv = dst.v - src.v
        vals = (
            12.0 * (np.dot(gap, gap) / grid**2 - np.dot(gap, vsum) / grid)
            + 3.0 * np.dot(vsum, vsum)
            + np.dot(dv, dv)
        )
        gmin = float(vals.min())
        grid_below = max(grid_below, inf_val - gmin)
        if tag.is_finite:
            worst_gap = max(worst_gap, gmin - inf_val)
    ok = worst_action <= 1e-12 and grid_below <= 1e-9 and worst_gap <= 1e-6
    return _result(
        "closed-form-consistency",
        ok,
        f"max action mismatch {worst_action:.2e} (tol 1e-12), "
        f"grid-min below infimum by {grid_below:.2e}, "
        f"finite-horizon gap {worst_gap:.2e} (tol 1e-6) over {n_pairs} pairs",
    )


# ---------------------------------------------------------------------------
# 2. The packaged two-plan tie instance.


def check_two_plan_tie(seed: int = 42) -> CheckResult:
    mu, nu = nonunique_two_atom_instance()
    res = solve_d(mu, nu)
    orc = brute_force_oracle(mu, nu)
    times = sorted(
        t.value for _, _, t in orc.optima if t.is_finite
    )
    ok = (
        abs(res.cost_sq - 30.0) <= 1e-8
        and abs(orc.cost_sq - 30.0) <= 1e-8
        and len(orc.optima) == 2
        and len(times) == 2
        and abs(times[0] - 1.0) <= 1e-9
        and abs(times[1] - 2.0) <= 1e-9
    )
    return _result(
        "two-plan-tie",
        ok,
        f"solver {res.cost_sq:.12f}, oracle {orc.cost_sq:.12f}, "
        f"{len(orc.optima)} optimal vertices at horizons {times}",
    )


# ---------------------------------------------------------------------------
# 3. Oracle dominance of the horizon search on random uniform instances.


def _oracle_sweep(seed: int, count: int = 200):
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        instances.append(random_uniform_instance(rng, m, n))
    return instances


def check_oracle_dominance(seed: int = 42) -> CheckResult:
    instances = _oracle_sweep(seed)
    below = 0
    matched = 0
    worst_gap = 0.0
    for mu, nu in instances:
        orc = brute_force_oracle(mu, nu)
        res = solve_d(mu, nu)
        if res.cost_sq < orc.cost_sq - 1e-9:
            below += 1
        if _rel_err(res.cost_sq, orc.cost_sq) <= 1e-8:
            matched += 1
        else:
            worst_gap = max(worst_gap, res.cost_sq - orc.cost_sq)
    rate = matched / len(instances)
    ok = below == 0 and rate >= 0.95
    return _result(
        "oracle-dominance",
        ok,
        f"{matched}/{len(instances)} global optima matched ({rate:.1%}), "
        f"{below} below-oracle violations, worst local-minimum excess {worst_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. Zero-discrepancy characterisation and drift detection.


def check_zero_characterization(seed: int = 42) -> CheckResult:
    msgs = []
    ok = True
    for T in (0.0, 0.7, 1.3):
        mu, nu = free_transport_pair(T=T, seed=seed)
        res = solve_d(mu, nu)
        det = detect_free_transport(mu, nu)
        good = (
            res.cost_sq <= 1e-10
            and det.T is not None
            and abs(det.T - T) <= 1e-8
        )
        ok = ok and good
        msgs.append(f"T={T}: cost {res.cost_sq:.1e}, detected {det.T}")
    rng = np.random.default_rng(seed + 1)
    rest = DiscreteMeasure(
        rng.normal(size=(4, 2)), np.zeros((4, 2)), np.full(4, 0.25)
    )
    rest2 = DiscreteMeasure(
        rng.normal(size=(4, 2)), np.zeros((4, 2)), np.full(4, 0.25)
    )
    res_rest = solve_d(rest, rest2)
    det_rest = detect_free_transport(rest, rest2)
    ok = ok and res_rest.cost_sq <= 1e-10 and det_rest.both_rest
    msgs.append(f"double-rest cost {res_rest.cost_sq:.1e}, flag {det_rest.both_rest}")
    mu_g, nu_g = generic_positive_instance()
    res_g = solve_d(mu_g, nu_g)
    ok = ok and res_g.cost_sq > 1e-2
    msgs.append(f"generic cost {res_g.cost_sq:.4f} (> 1e-2)")
    return _result("zero-characterization", ok, "; ".join(msgs))


# ---------------------------------------------------------------------------
# 5. Action identity between plan cost, ensemble action, and path action.


def check_action_identity(seed: int = 42) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_closed = 0.0
    worst_disc = 0.0
    orders_ok = True
    dts = (1e-2, 5e-3, 2.5e-3)
    for _ in range(20):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(1, 4))
        mu, nu = random_uniform_instance(rng, m, n)
        res = solve_fixed_T(mu, nu, 1.0)
        ens = build_dynamical_plan(mu, nu, res.plan, 1.0)
        worst_closed = max(worst_closed, _rel_err(ens.action(), res.cost_sq))
        mu0 = interpolate_at(ens, 0.0)
        force = spline_forcing(ens)
        errs = []
        for dt in dts:
            traj = vlasov_integrate(mu0, force, 0.0, 1.0, dt)
            errs.append(_rel_err(path_action(traj), res.cost_sq))
        worst_disc = max(worst_disc, max(errs))
        if max(errs) > 1e-10:
            # Genuine discretisation error: demand at least second order.
            for e0, e1 in zip(errs, errs[1:]):
                if e1 > 1e-12 and np.log2(e0 / e1) < 1.9:
                    orders_ok = False
    ok = worst_closed <= 1e-10 and orders_ok
    return _result(
        "action-identity",
        ok,
        f"ensemble action vs plan cost: max rel err {worst_closed:.2e} (tol 1e-10); "
        f"discretised action worst rel err {worst_disc:.2e} "
        f"({'exact to roundoff' if worst_disc <= 1e-10 else 'order >= 1.9 checked'})",
    )


# ---------------------------------------------------------------------------
# 6. Interior injectivity of optimal-plan ensembles; crossing pair flagged.


def check_interior_injectivity(seed: int = 42) -> CheckResult:
    instances = _oracle_sweep(seed)
    min_sep = np.inf
    violations = 0
    checked = {"fixed-T": 0, "time-optimised": 0}
    for mu, nu in instances:
        res = solve_fixed_T(mu, nu, 1.0)
        ensembles = [("fixed-T", build_dynamical_plan(mu, nu, res.plan, 1.0))]
        # Same check through the time-optimised plan when its horizon is finite.
        orc = brute_force_oracle(mu, nu)
        if orc.optimal_time.is_finite:
            ens = build_dynamical_plan(mu, nu, orc.plan, orc.optimal_time.value)
            ensembles.append(("time-optimised", ens))
        for kind, ens in ensembles:
            rep = monge_mather_check(ens)
            if np.isfinite(rep.min_separation):
                checked[kind] += 1
                min_sep = min(min_sep, rep.min_separation)
                if rep.violated:
                    violations += 1
    cross = monge_mather_check(crossing_ensemble())
    ok = violations == 0 and cross.violated
    return _result(
        "interior-injectivity",
        ok,
        f"{checked['fixed-T']} fixed-T and {checked['time-optimised']} time-optimised "
        f"ensembles, 0 expected violations (got {violations}), "
        f"min separation {min_sep:.3e}; crossing pair flagged: {cross.violated} "
        f"(pair separation {cross.min_separation:.1e})",
    )


# ---------------------------------------------------------------------------
# 7. Derivative ratios approach the force norm along simulated curves.


def check_derivative_ratios(seed: int = 42) -> CheckResult:
    ok = True
    details = []
    for name, traj, times in (
        ("single", harmonic_single(), PROBE_TIMES),
        ("ensemble", harmonic_ensemble(seed=seed), (0.1, 0.4, 0.7)),
    ):
        for t in times:
            pts = metric_derivative_probe(traj, t, H_LADDER)
            fnorm = pts[0].force_norm
            errs = [abs(p.ratio_tilde - fnorm) for p in pts]
            decreasing = all(e0 > e1 for e0, e1 in zip(errs, errs[1:]))
            final_ok = errs[-1] < 0.05 * fnorm
            ok = ok and decreasing and final_ok
            details.append(
                f"{name}@t={t}: errs {['%.2e' % e for e in errs]}, |F|={fnorm:.3f}"
            )
    return _result("derivative-ratios", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Optimal-time ratios approach one; second-order rate under net momentum.


def check_time_ratios(seed: int = 42) -> CheckResult:
    ok = True
    details = []
    scenarios = [
        ("single", harmonic_single(), (0.2, 0.4, 0.6)),
        ("ensemble", harmonic_ensemble(seed=seed), PROBE_TIMES),
        ("opposite", opposite_pair(), (0.3,)),
    ]
    for name, traj, times in scenarios:
        for t in times:
            ratios = []
            for p in metric_derivative_probe(traj, t, H_LADDER):
                tag = p.optimal_time
                if not tag.is_finite:
                    ok = False
                    details.append(f"{name}@t={t}: non-finite tag {tag.kind} at h={p.h}")
                    break
                ratios.append((p.h, tag.value / p.h))
            else:
                errs = [abs(r - 1.0) for _, r in ratios]
                decreasing = all(e0 > e1 for e0, e1 in zip(errs, errs[1:]))
                final_ok = errs[-1] < 0.05
                ok = ok and decreasing and final_ok
                line = f"{name}@t={t}: |T/h-1| {['%.2e' % e for e in errs]}"
                if name == "single" and np.linalg.norm(traj.measure_at(t).mean_velocity()) > 1e-9:
                    second = [abs(r - 1.0) / h for h, r in ratios]
                    second_dec = all(s0 > s1 for s0, s1 in zip(second, second[1:]))
                    ok = ok and second_dec
                    line += f", |(T-h)/h^2| {['%.2e' % s for s in second]}"
                details.append(line)
    return _result("time-ratios", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. The brake curve: endpoint discrepancy over applied force approaches 2.


def check_brake_ratio(seed: int = 42) -> CheckResult:
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        t1 = 1.0 + np.sqrt(eps)
        traj = factor2_trajectory(eps, t1 / 16000)
        mu0 = traj.measure_at(traj.times[0])
        mu1 = traj.measure_at(traj.times[-1])
        d_val = float(np.sqrt(solve_d(mu0, mu1).cost_sq))
        f_norms = np.sqrt(traj.norm_sq(traj.forces))
        f_int = float(np.trapezoid(f_norms, traj.times))
        ratios.append(d_val / f_int)
    target = 2.0 * abs(2.0 * 1e-2 - 2.0 * np.sqrt(1e-2)) / factor2_force_integral(1e-2)
    ok = (
        abs(ratios[0] - target) <= 1e-3
        and abs(ratios[0] - 1.6364) <= 1e-3
        and ratios[0] < ratios[1] < ratios[2] < 2.0
    )
    return _result(
        "brake-ratio",
        ok,
        f"ratios {['%.4f' % r for r in ratios]} (first expect {target:.4f}, trend -> 2)",
    )


# ---------------------------------------------------------------------------
# 10. The circle shift: time-optimised cost of the shifted coupling collapses
# while no zero-cost coupling other than the identity exists.


def check_shift_collapse(seed: int = 42) -> CheckResult:
    values = []
    for N in (16, 64, 256):
        mu, coup = circle_shift_coupling_moments(N)
        values.append(cost_tilde_c(plan_moments(mu, mu, coup)))
    mu64 = circle_measure(64)
    ident = solve_d(mu64, mu64)
    rng = np.random.default_rng(seed)
    nonzero_ok = True
    min_nonidentity = np.inf
    for trial in range(8):
        if trial < 3:
            shift = 2**trial
            perm = (np.arange(64) + shift) % 64
        else:
            perm = rng.permutation(64)
            if np.all(perm == np.arange(64)):
                continue
        P = np.zeros((64, 64))
        P[np.arange(64), perm] = 1.0 / 64
        val = cost_c(plan_moments(mu64, mu64, Coupling(P, mu64, mu64)))
        min_nonidentity = min(min_nonidentity, val)
        if val <= 1e-12:
            nonzero_ok = False
    ok = (
        values[0] > values[1] > values[2] > 0.0
        and values[2] < 0.02
        and ident.cost_sq <= 1e-10
        and nonzero_ok
    )
    return _result(
        "shift-collapse",
        ok,
        f"shifted-coupling costs {['%.3e' % v for v in values]} (final < 0.02), "
        f"identity cost {ident.cost_sq:.1e}, "
        f"min non-identity vertex cost {min_nonidentity:.3e} > 0",
    )


# ---------------------------------------------------------------------------
# 11. Moment propagation bounds and the two-sided physicality estimate.


def _packaged_trajectories(seed: int = 42):
    rng = np.random.default_rng(seed)
    free0 = DiscreteMeasure(
        rng.normal(size=(8, 2)), rng.normal(size=(8, 2)), np.full(8, 0.125)
    )
    return {
        "harmonic-single": harmonic_single(),
        "harmonic-ensemble": harmonic_ensemble(seed=seed),
        "opposite-pair": opposite_pair(),
        "free-ensemble": vlasov_integrate(free0, ForceField.free(), 0.0, 1.0, 1.0 / 160.0),
        "brake-curve": factor2_trajectory(1e-2, (1.0 + np.sqrt(1e-2)) / 4400),
    }


def check_moment_bounds(seed: int = 42) -> CheckResult:
    ok = True
    details = []
    rng = np.random.default_rng(seed + 3)
    for name, traj in _packaged_trajectories(seed).items():
        rep = moment_report(traj)
        ok = ok and rep.ok
        worst = min(float(rep.v_margin.min()), float(rep.x_margin.min()))
        dt = float(traj.times[1] - traj.times[0])
        f_norms = np.sqrt(traj.norm_sq(traj.forces))
        phys_worst = -np.inf
        for _ in range(20):
            i = int(rng.integers(0, traj.n_times - 2))
            j = int(rng.integers(i + 1, traj.n_times))
            s, t = float(traj.times[i]), float(traj.times[j])
            lhs = float(
                np.sqrt(
                    max(
                        solve_fixed_T(
                            traj.measure_at(s), traj.measure_at(t), t - s
                        ).cost_sq,
                        0.0,
                    )
                )
            )
            rhs = 2.0 * float(np.trapezoid(f_norms[i : j + 1], traj.times[i : j + 1]))
            slack = 10.0 * dt * dt * (1.0 + rhs)
            phys_worst = max(phys_worst, lhs - rhs - slack)
            if lhs > rhs + slack:
                ok = False
        details.append(
            f"{name}: moment margin {worst:.2e} (slack {rep.slack:.1e}), "
            f"physicality excess {phys_worst:.2e}"
        )
    return _result("moment-bounds", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 12. Constant time rescaling doubles force norms and optimal-time ratios.


def check_reparametrization(seed: int = 42) -> CheckResult:
    traj = harmonic_single()
    fast = reparametrize(traj, lambda s: 2.0)
    t, s = 0.3, 0.15
    h_fine = H_LADDER[-1]
    base = metric_derivative_probe(traj, t, (h_fine,))[0]
    scaled = metric_derivative_probe(fast, s, (h_fine,))[0]
    force_ratio = scaled.force_norm / base.force_norm
    # The rescaled curve drifts at twice the velocity clock, so the envelope
    # ratio (which optimises the horizon) doubles; the fixed-horizon ratio
    # does not and is not asserted here.
    deriv_ratio = scaled.ratio_d / base.ratio_d
    tag = scaled.optimal_time
    t_ratio = tag.value / h_fine if tag.is_finite else float("nan")
    ok = (
        abs(force_ratio - 2.0) <= 0.1
        and abs(deriv_ratio - 2.0) <= 0.1
        and abs(t_ratio - 2.0) <= 0.1
    )
    return _result(
        "reparametrization",
        ok,
        f"force-norm ratio {force_ratio:.4f}, derivative ratio {deriv_ratio:.4f}, "
        f"T ratio {t_ratio:.4f} (each expect 2 within 5%)",
    )


SUITES = {
    "paper-examples": (
        check_two_plan_tie,
        check_brake_ratio,
        check_shift_collapse,
        check_zero_characterization,
    ),
    "monge-mather": (check_interior_injectivity,),
    "moments": (check_moment_bounds,),
    "benamou-brenier": (check_action_identity,),
}


def run_checks(checks, seed: int = 42) -> list[CheckResult]:
    results = []
    for fn in checks:
        start = time.perf_counter()
        try:
            result = fn(seed=seed)
        except Exception as exc:  # surfaced as a failing check, not a crash
            result = CheckResult(name=fn.__name__, ok=False, detail=f"error: {exc}")
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
