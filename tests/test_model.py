import numpy as np
import pytest

from cdde_bound.envelope import exponential_estimate
from cdde_bound.linalg import DimensionMismatch
from cdde_bound.model import NONNEG_TOL, SystemSpec, negative, validate_structure
from cdde_bound.simulator import InvalidScenario, _check_envelope
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


def test_roundoff_negatives_clamped_on_load():
    spec = _spec_with(B=[[0.2, -1e-13], [0.5, 0.3], [0.0, 0.4]],
                      omega_bar=[0.5, -5e-13, 0.1])
    assert spec.B[0, 1] == 0.0
    assert spec.omega_bar[1] == 0.0
    assert validate_structure(spec) == []


def test_tolerated_negative_not_clamped():
    spec = _spec_with(omega_bar=[0.5, -1e-12, 0.1])
    assert spec.omega_bar[1] == -1e-12
    assert validate_structure(spec) == []


def _passes(check, *args) -> bool:
    try:
        check(*args)
    except (NotMetzler, NotNonnegative, InvalidScenario):
        return False
    return True


@pytest.mark.parametrize("scale, accepted", [(1.0, True), (2.0, False)])
def test_sign_tolerance_boundary_across_modules(scale, accepted):
    # -NONNEG_TOL is not clamped on load and passes every sign check;
    # -2 NONNEG_TOL fails every one of them
    e = -scale * NONNEG_TOL
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
        exponential_estimate(make_sample_system().A, 0.1, theta)
    else:
        with pytest.raises(ValueError, match="theta_bar must be nonnegative"):
            exponential_estimate(make_sample_system().A, 0.1, theta)
    times = np.zeros(1)
    assert _passes(_check_envelope, "w", times, np.array([[e]]), np.array([1.0])) is accepted
    assert _passes(_check_envelope, "w", times, np.array([[-e]]), np.array([0.0])) is accepted


def test_nan_counts_as_negative():
    assert negative([np.nan, -NONNEG_TOL, -2 * NONNEG_TOL, 0.0]).tolist() == [True, False, True, False]
    times = np.zeros(1)
    for values in ([np.nan], [0.5, np.nan]):
        with pytest.raises(InvalidScenario):
            _check_envelope("w", times, np.array([values]), np.ones(len(values)))


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
