"""Invalid inputs that the public API rejects with a ``ValueError``."""

from pathlib import Path

import numpy as np
import pytest

import otikin
from otikin.dynamics import (
    ForceField,
    SplineEnsemble,
    Trajectory,
    metric_derivative_probe,
    path_action,
    reparametrize,
    vlasov_integrate,
)
from otikin.measures import Coupling, DiscreteMeasure, PairMoments, PlanMoments, load_measure
from otikin.phase import OptimalTime, PhaseState, optimal_time_point
from otikin.solver import cost_tilde_c_T, detect_free_transport, solve_fixed_T

DATA = Path(otikin.__file__).parent / "data"


def pair():
    """Two one-atom measures on the line."""
    return DiscreteMeasure([[0.0]], [[1.0]], [1.0]), DiscreteMeasure([[1.0]], [[1.0]], [1.0])


def half_pair():
    """Two copies of one measure of two atoms of mass 1/2 on the line."""
    mu = DiscreteMeasure([[0.0], [1.0]], [[0.0], [0.0]], [0.5, 0.5])
    return mu, mu


def still(times, forces=None):
    """One particle at rest on the grid ``times``, with zero force samples
    unless ``forces`` is given."""
    times = np.asarray(times, dtype=float)
    states = np.zeros((times.size, 1, 2, 1))
    if forces is None:
        forces = np.zeros((times.size, 1, 1))
    return Trajectory(times=times, states=states, weights=np.ones(1), forces=forces)


def free_run():
    """A free particle integrated over [0, 1] in steps of 0.25."""
    return vlasov_integrate(pair()[0], ForceField.free(), 0.0, 1.0, 0.25)


REJECTIONS = {
    "coupling-negative-mass": (
        lambda: Coupling(np.array([[-0.5]]), *pair()),
        "plan has negative mass -0.5",
    ),
    "coupling-nan-mass": (
        lambda: Coupling(np.array([[0.5, np.nan], [0.0, 0.5]]), *half_pair()),
        "plan has negative mass nan",
    ),
    "unknown-measure-format": (
        lambda: load_measure(str(DATA / "uniform5_mu.json"), "xml"),
        "unknown measure format 'xml'",
    ),
    "moments-of-a-flat-stack": (
        lambda: PairMoments(*pair()).of_each(np.ones((1, 1))),
        "expected a stack of plan matrices",
    ),
    "spline-masses-not-one": (
        lambda: SplineEnsemble(np.zeros((1, 4, 1)), np.array([0.5]), 1.0),
        "spline masses must sum to 1",
    ),
    "spline-mass-nan": (
        lambda: SplineEnsemble(np.zeros((1, 4, 1)), np.array([np.nan]), 1.0),
        "spline masses must be finite and positive",
    ),
    "spline-mass-negative": (
        lambda: SplineEnsemble(np.zeros((2, 4, 1)), np.array([2.0, -1.0]), 1.0),
        "spline masses must be finite and positive",
    ),
    "spline-horizon-zero": (
        lambda: SplineEnsemble(np.zeros((1, 4, 1)), np.array([1.0]), 0.0),
        "horizon must be positive, got 0.0",
    ),
    "trajectory-grid-not-increasing": (
        lambda: still([0.0, 1.0, 1.0]),
        "trajectory grid must be strictly increasing",
    ),
    "integrate-dt-zero": (
        lambda: vlasov_integrate(pair()[0], ForceField.free(), 0.0, 1.0, 0.0),
        "dt must be positive",
    ),
    "integrate-t0-nan": (
        lambda: vlasov_integrate(pair()[0], ForceField.free(), np.nan, 1.0, 0.25),
        "t0 must be finite, got nan",
    ),
    "integrate-t1-infinite": (
        lambda: vlasov_integrate(pair()[0], ForceField.free(), 0.0, np.inf, 0.25),
        "t1 must be finite, got inf",
    ),
    "integrate-dt-nan": (
        lambda: vlasov_integrate(pair()[0], ForceField.free(), 0.0, 1.0, np.nan),
        "dt must be finite, got nan",
    ),
    "action-non-uniform-grid": (
        lambda: path_action(still([0.0, 1.0, 3.0])),
        "action quadrature requires a uniform time grid",
    ),
    "action-without-forces": (
        lambda: path_action(still([0.0, 1.0, 2.0], forces=np.zeros(0))),
        "trajectory carries no force samples",
    ),
    "probe-offset-zero": (
        lambda: metric_derivative_probe(free_run(), 0.0, [0.0]),
        "probe offsets must be positive",
    ),
    "reparametrize-negative-lambda": (
        lambda: reparametrize(free_run(), lambda s: -1.0),
        "lambda must be positive and finite, got -1.0",
    ),
    "optimal-time-unknown-kind": (
        lambda: OptimalTime("never"),
        "unknown optimal-time kind 'never'",
    ),
    "optimal-time-finite-without-value": (
        lambda: OptimalTime("finite"),
        "finite optimal time must carry a positive value",
    ),
    "optimal-time-zero-with-value": (
        lambda: OptimalTime("zero", 1.0),
        "'zero' optimal time carries no value",
    ),
    "fixed-horizon-zero": (
        lambda: solve_fixed_T(*pair(), 0.0),
        "horizon must be positive, got 0.0",
    ),
    "plan-cost-horizon-negative": (
        lambda: cost_tilde_c_T(PlanMoments(1.0, 0.0, 1.0, 0.0, False), -1.0),
        "horizon must be positive, got -1.0",
    ),
    "free-transport-dimension-mismatch": (
        lambda: detect_free_transport(
            pair()[0], DiscreteMeasure([[0.0, 0.0]], [[1.0, 0.0]], [1.0])
        ),
        "dimension mismatch: 1 vs 2",
    ),
    "optimal-time-point-dimension-mismatch": (
        lambda: optimal_time_point(PhaseState([0.0], [1.0]), PhaseState([1.0, 2.0], [0.5, 0.5])),
        "dimension mismatch: 1 vs 2",
    ),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_invalid_input_is_rejected(case):
    call, message = REJECTIONS[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
