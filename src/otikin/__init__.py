"""Kinetic optimal transport with a minimal-acceleration cost.

Discrepancies between weighted point clouds on phase space (position and
velocity), computed through exact transport plans; cubic-spline dynamical
interpolations; a Lagrangian Vlasov integrator; and numerical probes for the
dynamical identities the discrepancy satisfies.
"""

from .phase import (
    OptimalTime,
    PhaseState,
    d_sq,
    optimal_time_point,
    spline_action,
    spline_from_endpoints,
    spline_states,
    tilde_d_sq,
    tilde_dT_sq,
)
from .measures import (
    Coupling,
    DiscreteMeasure,
    PairMoments,
    PlanMoments,
    measure_from_csv,
    measure_from_json,
    measure_to_csv,
    measure_to_json,
    plan_moments,
    product_coupling,
    pushforward_free_transport,
    validate_measure,
    w2_sq,
)
from .solver import (
    SolveResult,
    brute_force_oracle,
    cost_c,
    cost_tilde_c,
    cost_tilde_c_T,
    detect_free_transport,
    optimal_time_plan,
    solve_d,
    solve_fixed_T,
    solve_tilde_d,
)
from .dynamics import (
    ForceField,
    SplineEnsemble,
    Trajectory,
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

__version__ = "0.1.0"
