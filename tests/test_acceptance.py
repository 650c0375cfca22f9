"""Acceptance gate: every packaged verification check must pass.

Each criterion is one test; the pass/fail line with the measured numbers is
printed so a full run reads as a report (run with ``pytest -s`` or check the
captured output on failure). The third column of ``CRITERIA`` pins the
SHA-256 of each check's ``detail`` line at ``SEED``, so the measured numbers
cannot move unnoticed while the gates still pass.
"""

import hashlib

import pytest

from otikin.verification import (
    check_action_identity,
    check_brake_ratio,
    check_closed_form_consistency,
    check_derivative_ratios,
    check_interior_injectivity,
    check_moment_bounds,
    check_oracle_dominance,
    check_reparametrization,
    check_shift_collapse,
    check_time_ratios,
    check_two_plan_tie,
    check_zero_characterization,
)

SEED = 42

CRITERIA = [
    ("1 closed-form consistency", check_closed_form_consistency,
     "11f46c1f00e53ed03c2021e67cd4ba539b1708b97665d0a0621fc9c78de0117b"),
    ("2 two-plan tie at cost 30", check_two_plan_tie,
     "28d6e9d240a18f2e6add88d2f349e209a681df4120457ab7c45cd7c0861ef110"),
    ("3 oracle dominance", check_oracle_dominance,
     "623a43f9bc7887bf680f09f041e7f5cf74c36535c5f530b9a2713e6b0ad4a439"),
    ("4 zero characterization", check_zero_characterization,
     "3164095991d44c9ff7230c7a734e2dbd0ac1a3979c1859e79777a4eac5ec2857"),
    ("5 action identity", check_action_identity,
     "4a1a9992318b0dd14c5178cba550e948ceaec425fc1688e7ab8d1dd1aa1163fc"),
    ("6 interior injectivity", check_interior_injectivity,
     "347cc91cd2ae5b11ea31cf908642058c2702284bce6f320a1ec69673c17149ca"),
    ("7 derivative ratios", check_derivative_ratios,
     "33237267550a800282a1979752a26eeb8e0123c8372a636a9dd126efa1cc0ed1"),
    ("8 optimal-time ratios", check_time_ratios,
     "56429b1b3a771ed2f8ba9d1c3ef1bd7a39d34acca8cf01db365420d8d1663f55"),
    ("9 brake-curve ratio", check_brake_ratio,
     "21aee2e28d017e1a1e49f70dc1cc344fb94adb226acd95ddfd4f046103f648cb"),
    ("10 shift collapse", check_shift_collapse,
     "4a4419c801d06e23d64a7e407327e733896974c7a414574cbc292becb6aa941b"),
    ("11 moment bounds", check_moment_bounds,
     "659cf2ba0ec6f62efeccbd07a4fa061d7b8a3612057c55bddda7de11c7e540bf"),
    ("12 reparametrization", check_reparametrization,
     "815eb88055221daf2cbe4fe8225c35de0391b5323b3fda64c6985b2f94431148"),
]


@pytest.mark.parametrize("label,check,detail_sha256", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(label, check, detail_sha256):
    result = check(seed=SEED)
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} {label}: {result.detail}")
    assert result.ok, f"{label}: {result.detail}"
    assert hashlib.sha256(result.detail.encode()).hexdigest() == detail_sha256, result.detail
