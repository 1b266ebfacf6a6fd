import numpy as np
import pytest

from cdde_bound.envelope import gamma_component
from cdde_bound.linalg import DimensionMismatch
from cdde_bound.model import SystemSpec, negative, validate_structure
from cdde_bound.signals import InvalidScenario, SignalSpec, validate_scenario
from cdde_bound.stability import (NotMetzler, NotNonnegative, check_joint_condition,
                                  is_metzler_hurwitz, is_schur_nonneg)

from conftest import make_sample_system


def test_sample_system_validates_clean(sample_spec):
    assert validate_structure(sample_spec) == []


def _spec_with(**overrides):
    base = dict(
        A=[[-2.5, 0.3, 0.0], [0.5, -2.0, 0.1], [0.4, 0.6, -3.0]],
        B=[[0.2, 0.1], [0.5, 0.3], [0.0, 0.4]],
        C=[[0.3, 0.4, 0.1], [0.2, 0.2, 0.0]],
        D=[[0.6, 0.3], [0.1, 0.2]],
        h_max=2.0,
        omega_bar=[0.5, 0.3, 0.1], d_bar=[0.3, 0.1],
        psi_bar=[2.0, 5.0, 3.0], phi_bar=[15.0, 5.0],
    )
    base.update(overrides)
    return SystemSpec(**base)


def test_negative_b_entry_reported():
    spec = _spec_with(B=[[0.2, -0.1], [0.5, 0.3], [0.0, 0.4]])
    findings = validate_structure(spec)
    assert any("B not nonnegative at (0, 1)" in f for f in findings)


def test_negative_psi_bar_reported():
    spec = _spec_with(psi_bar=[2.0, -5.0, 3.0])
    findings = validate_structure(spec)
    assert any("psi_bar not nonnegative" in f for f in findings)


def test_non_metzler_a_reported():
    spec = _spec_with(A=[[-2.5, -0.3, 0.0], [0.5, -2.0, 0.1], [0.4, 0.6, -3.0]])
    findings = validate_structure(spec)
    assert any("A not Metzler at (0, 1)" in f for f in findings)


def test_negative_h_max_reported():
    spec = _spec_with(h_max=-1.0)
    assert any("h_max negative" in f for f in validate_structure(spec))


def test_validate_is_total_and_collects_everything():
    spec = _spec_with(
        B=[[-0.2, 0.1], [0.5, 0.3], [0.0, 0.4]],
        d_bar=[-0.3, 0.1],
        h_max=-2.0,
    )
    findings = validate_structure(spec)
    assert len(findings) == 3


def test_small_negatives_kept_on_load():
    # the arrays are stored as parsed, and a negative entry of any size is
    # a finding, however close to zero
    spec = _spec_with(A=[[-2.5, 0.3, -5e-324], [0.5, -2.0, 0.1], [0.4, 0.6, -3.0]],
                      B=[[0.2, -1e-13], [0.5, 0.3], [0.0, 0.4]],
                      omega_bar=[0.5, -5e-13, 0.1], d_bar=[-0.0, 0.1])
    assert (spec.A[0, 2], spec.B[0, 1], spec.omega_bar[1]) == (-5e-324, -1e-13, -5e-13)
    assert np.signbit(spec.d_bar[0])
    assert validate_structure(spec) == ["A not Metzler at (0, 2): -5e-324",
                                        "B not nonnegative at (0, 1): -1e-13",
                                        "omega_bar not nonnegative at 1: -5e-13"]


def test_negative_bar_entry_kept_and_refused():
    spec = _spec_with(omega_bar=[0.5, -1e-12, 0.1])
    assert spec.omega_bar[1] == -1e-12
    assert validate_structure(spec) == ["omega_bar not nonnegative at 1: -1e-12"]


def _validate(spec, psi, omega=None):
    """The scenario check on ``psi``, ``omega`` (default zero) and quiet
    rest: phi at its bar, no d, delays of 1."""
    validate_scenario(spec, psi=psi, phi=SignalSpec.constant(spec.phi_bar),
                      omega=omega or SignalSpec("zero", (0.0,) * spec.n),
                      d=SignalSpec("zero", (0.0,) * spec.m), h1=SignalSpec.constant([1.0]),
                      h2=SignalSpec.constant([1.0]), t_end=1.0, step=1e-3)


def _passes(check, *args) -> bool:
    try:
        check(*args)
    except (NotMetzler, NotNonnegative, InvalidScenario):
        return False
    return True


@pytest.mark.parametrize("e", [-0.0, -5e-324, -1e-13, -1e-12, -2e-12])
def test_sign_rule_across_modules(e):
    # the one sign rule: -0.0 passes every sign check, and a negative entry
    # of any size fails every one of them
    accepted = e == 0.0
    A = [[-2.5, 0.3, e], [0.5, -2.0, 0.1], [0.4, 0.6, -3.0]]
    D = [[0.6, 0.3], [e, 0.2]]
    spec = _spec_with(A=A, B=[[0.2, 0.1], [0.5, 0.3], [e, 0.4]],
                      C=[[0.3, 0.4, 0.1], [0.2, 0.2, e]], D=D, psi_bar=[2.0, 5.0, e])
    assert spec.A[0, 2] == spec.B[2, 0] == spec.C[1, 2] == spec.D[1, 0] == spec.psi_bar[2] == e
    assert (validate_structure(spec) == []) is accepted
    report = check_joint_condition(spec)
    assert report.a_is_metzler is accepted
    assert report.bcd_nonnegative is accepted
    assert _passes(is_metzler_hurwitz, A) is accepted
    assert _passes(is_schur_nonneg, D) is accepted
    theta = [1.0, 1.0, e]
    if accepted:
        gamma_component(make_sample_system().A, 0.1, theta, 0)
    else:
        with pytest.raises(ValueError, match="theta_bar must be nonnegative"):
            gamma_component(make_sample_system().A, 0.1, theta, 0)
    # the scenario check's signs too: psi at its bar, psi_bar[2] = e, and
    # psi_3 = -e, above psi_bar[2] unless e is -0.0
    assert _passes(_validate, spec, spec.psi_bar) is accepted
    assert _passes(_validate, spec, [2.0, 5.0, -e]) is accepted
    omega = SignalSpec("abs_sin", (0.5, 0.3, e), (1.0,))
    assert _passes(_validate, _spec_with(), [2.0, 5.0, 3.0], omega) is accepted


def test_nan_counts_as_negative():
    assert negative([np.nan, -5e-324, -0.0, 0.0]).tolist() == [True, True, False, False]
    for i, psi in enumerate(([np.nan, 1.0, 1.0], [0.5, np.nan, 1.0])):
        with pytest.raises(InvalidScenario, match=rf"^scenario.psi\[{i}\] reaches nan < 0$"):
            _validate(_spec_with(), psi)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        _spec_with(B=[[0.2], [0.5], [0.0]])
    with pytest.raises(DimensionMismatch):
        _spec_with(psi_bar=[1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        _spec_with(A=[[-1.0, 0.0], [0.0, -1.0]])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        _spec_with(h_max=np.nan)
    with pytest.raises(ValueError):
        _spec_with(d_bar=[np.inf, 0.0])


def test_spec_is_immutable():
    spec = make_sample_system()
    with pytest.raises(ValueError):
        spec.A[0, 0] = 99.0
    with pytest.raises(AttributeError):
        spec.h_max = 3.0


def test_dimensions():
    spec = make_sample_system()
    assert (spec.n, spec.m) == (3, 2)
