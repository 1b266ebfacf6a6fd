import json

import numpy as np
import pytest

from cdde_bound.certificate import (MU_MIN, CertificateError, HypothesisViolated,
                                    NegativeTime, compute_certificate,
                                    comparison_vectors, contraction_factor,
                                    raw_contraction_factor, sample_staircase,
                                    staircase, ultimate_bound)
from cdde_bound.linalg import cmp_leq, solve
from cdde_bound.model import SystemSpec

from conftest import make_sample_system


def scalar_coupled_spec(**overrides):
    base = dict(A=[[-1.0]], B=[[1.0]], C=[[0.5]], D=[[0.0]], h_max=1.0,
                omega_bar=[1.0], d_bar=[0.0], psi_bar=[2.0], phi_bar=[1.0])
    base.update(overrides)
    return SystemSpec(**base)


@pytest.fixture(scope="module")
def sample_cert(sample_spec):
    return compute_certificate(sample_spec, alpha_step=1e-3)


def test_ultimate_bound_sample(sample_spec):
    eta, varsigma = ultimate_bound(sample_spec)
    assert eta == pytest.approx([0.7249, 1.4756, 0.5780], abs=5e-4)
    assert varsigma == pytest.approx([3.7739, 1.1469], abs=5e-4)


def test_ultimate_bound_homogeneous(sample_spec):
    spec = SystemSpec(A=sample_spec.A, B=sample_spec.B, C=sample_spec.C,
                      D=sample_spec.D, h_max=2.0,
                      omega_bar=[0.0] * 3, d_bar=[0.0] * 2,
                      psi_bar=sample_spec.psi_bar, phi_bar=sample_spec.phi_bar)
    eta, varsigma = ultimate_bound(spec)
    assert eta == pytest.approx([0.0] * 3, abs=1e-14)
    assert varsigma == pytest.approx([0.0] * 2, abs=1e-14)


def test_ultimate_bound_scalar_fixed_point():
    # steady state by hand: x' = 0 with y = 0.5 x gives x = 2, y = 1
    eta, varsigma = ultimate_bound(scalar_coupled_spec())
    assert eta == pytest.approx([2.0], abs=1e-12)
    assert varsigma == pytest.approx([1.0], abs=1e-12)


def test_comparison_vectors_sample(sample_spec):
    eta, varsigma = ultimate_bound(sample_spec)
    psi_hat = np.maximum(sample_spec.psi_bar, eta)
    phi_hat = np.maximum(sample_spec.phi_bar, varsigma)
    p, q = comparison_vectors(sample_spec, None, psi_hat - eta, phi_hat - varsigma)
    assert p == pytest.approx([2.3951, 5.5118, 2.4220], abs=5e-3)
    assert q == pytest.approx([14.1659, 4.9990], abs=5e-3)
    assert (p >= psi_hat - eta - 1e-12).all()
    assert (q >= phi_hat - varsigma - 1e-12).all()


def test_comparison_vectors_zero_bounds_clamped(sample_spec):
    p, q = comparison_vectors(sample_spec, None, np.zeros(3), np.zeros(2))
    assert p.min() > 0 and q.min() > 0
    # clamped to the minimal positive multiple of the direction
    direction = solve(np.block([[sample_spec.A, sample_spec.B],
                                [sample_spec.C, sample_spec.D - np.eye(2)]]),
                      -np.ones(5))
    assert p == pytest.approx(1e-9 * direction[:3], rel=1e-9)
    assert q == pytest.approx(1e-9 * direction[3:], rel=1e-9)


def test_comparison_vectors_scalar_hand_solve():
    # block system [[-1, 1], [0.5, -1]] v = -[1, 1] has v = (4, 3)
    spec = scalar_coupled_spec()
    p, q = comparison_vectors(spec, [1.0, 1.0], [2.0], [1.0])
    assert p == pytest.approx([2.0], abs=1e-12)   # rho = max(2/4, 1/3) = 0.5
    assert q == pytest.approx([1.5], abs=1e-12)
    assert p[0] >= 2.0 - 1e-15 and q[0] >= 1.0


def test_contraction_factor_sample(sample_spec, sample_cert):
    raw = raw_contraction_factor(sample_spec, sample_cert.p, sample_cert.q)
    assert raw == pytest.approx(0.0707, abs=5e-4)
    assert sample_cert.mu == pytest.approx(0.999 * raw, rel=1e-12)


def test_contraction_factor_decoupled_clamps():
    spec = SystemSpec(A=[[-1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], h_max=0.0,
                      omega_bar=[0.0], d_bar=[0.0], psi_bar=[1.0], phi_bar=[1.0])
    assert raw_contraction_factor(spec, [1.0], [1.0]) == pytest.approx(1.0)
    assert contraction_factor(spec, [1.0], [1.0]) == pytest.approx(0.999)


def test_contraction_factor_detects_bad_pair():
    # ratios: M1/p = 1/4, M2/q = 2, M3/q = 2 -> mu = -1
    with pytest.raises(HypothesisViolated):
        raw_contraction_factor(scalar_coupled_spec(), [4.0], [1.0])


def tiny_margin_spec(d: float) -> SystemSpec:
    """y nearly stationary (D = d close to 1): the raw factor is about
    (1 - d) / 2, below MU_MIN for the d used here."""
    return SystemSpec(A=[[-1.0]], B=[[1e-12]], C=[[1.0]], D=[[d]], h_max=0.1,
                      omega_bar=[0.0], d_bar=[0.0], psi_bar=[1.0], phi_bar=[1.0])


@pytest.mark.parametrize("d", [1.0 - 1e-9, 1.0 - 1e-10])
def test_contraction_factor_below_mu_min_is_refused(d):
    # raising MU_SAFETY * raw up to MU_MIN would certify a mu the comparison
    # inequalities do not allow
    spec = tiny_margin_spec(d)
    direction = solve([[-1.0, 1e-12], [1.0, d - 1.0]], [-1.0, -1.0])
    p, q = comparison_vectors(spec, None, [1.0], [1.0], (direction[:1], direction[1:]))
    assert 0.0 < raw_contraction_factor(spec, p, q) < MU_MIN
    with pytest.raises(HypothesisViolated, match="below MU_MIN"):
        contraction_factor(spec, p, q)
    with pytest.raises(CertificateError) as info:
        compute_certificate(spec)
    assert info.value.stage == "contraction-factor"


def test_certificate_sample_dwell(sample_spec, sample_cert):
    assert sample_cert.convergence.T == pytest.approx(1.2056, abs=0.05)
    assert sample_cert.T_star == 2.0
    assert not sample_cert.constant_bound
    assert 0.0 < sample_cert.mu < 1.0


def test_certificate_short_circuit_branch(sample_spec):
    eta, varsigma = ultimate_bound(sample_spec)
    spec = SystemSpec(A=sample_spec.A, B=sample_spec.B, C=sample_spec.C,
                      D=sample_spec.D, h_max=2.0,
                      omega_bar=sample_spec.omega_bar, d_bar=sample_spec.d_bar,
                      psi_bar=0.5 * eta, phi_bar=0.5 * varsigma)
    cert = compute_certificate(spec)
    assert cert.constant_bound
    xb, yb = staircase(cert, 123.4)
    assert xb == pytest.approx(eta)
    assert yb == pytest.approx(varsigma)


def test_certificate_zero_initial_bounds(sample_spec):
    spec = SystemSpec(A=sample_spec.A, B=sample_spec.B, C=sample_spec.C,
                      D=sample_spec.D, h_max=2.0,
                      omega_bar=sample_spec.omega_bar, d_bar=sample_spec.d_bar,
                      psi_bar=[0.0] * 3, phi_bar=[0.0] * 2)
    cert = compute_certificate(spec)
    eta, _ = ultimate_bound(spec)
    assert cert.constant_bound
    assert cert.p.min() > 0 and cert.q.min() > 0
    # the clamped scale keeps p, q tiny: the k = 0 bound is already at eta
    assert cert.p.max() < 1e-6 and cert.q.max() < 1e-6
    assert cert.eta + cert.p == pytest.approx(eta, abs=1e-6)


def test_certificate_rejects_bad_structure(sample_spec):
    spec = SystemSpec(A=sample_spec.A, B=[[0.2, -0.1], [0.5, 0.3], [0.0, 0.4]],
                      C=sample_spec.C, D=sample_spec.D, h_max=2.0,
                      omega_bar=sample_spec.omega_bar, d_bar=sample_spec.d_bar,
                      psi_bar=sample_spec.psi_bar, phi_bar=sample_spec.phi_bar)
    with pytest.raises(CertificateError) as err:
        compute_certificate(spec)
    assert err.value.stage == "structural-validation"


def test_certificate_rejects_unstable():
    spec = SystemSpec(A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], h_max=0.0,
                      omega_bar=[0.0], d_bar=[0.0], psi_bar=[1.0], phi_bar=[1.0])
    with pytest.raises(CertificateError) as err:
        compute_certificate(spec)
    assert err.value.stage == "stability-hypotheses"


def test_certificate_inequalities(sample_spec, sample_cert):
    p, q, mu = sample_cert.p, sample_cert.q, sample_cert.mu
    m1 = -solve(sample_spec.A, sample_spec.B @ q)
    m2 = solve(np.eye(2) - sample_spec.D, sample_spec.C @ p)
    m3 = sample_spec.C @ p + sample_spec.D @ q
    assert cmp_leq(m1, (1 - mu) * p, 1e-10)
    assert cmp_leq(m2, (1 - mu) * q, 1e-10)
    assert cmp_leq(m3, (1 - mu) * q, 1e-10)


def test_target_box_strictly_positive(sample_spec, sample_cert):
    shift = solve(sample_spec.A, sample_spec.B @ sample_cert.q)
    delta = (1 - sample_cert.mu) * sample_cert.p + shift
    assert delta.min() > 1e-12


def test_staircase_values(sample_spec, sample_cert):
    xb1, _ = staircase(sample_cert, 1.0)           # k = 0
    assert xb1 == pytest.approx([3.1200, 6.9874, 3.0000], abs=1e-3)
    xb2, _ = staircase(sample_cert, 2.0)           # k = 1
    factor = 1.0 - sample_cert.mu
    assert factor == pytest.approx(0.9293, abs=5e-4)
    assert xb2 == pytest.approx(sample_cert.eta + factor * sample_cert.p, rel=1e-12)


def test_staircase_monotone_and_limits(sample_cert):
    times = np.linspace(0.0, 120.0, 601)
    xb, yb = sample_staircase(sample_cert, times)
    assert (np.diff(xb, axis=0) <= 1e-12).all()
    assert (np.diff(yb, axis=0) <= 1e-12).all()
    x_inf, y_inf = staircase(sample_cert, 1e9)
    assert x_inf == pytest.approx(sample_cert.eta, abs=1e-12)
    assert y_inf == pytest.approx(sample_cert.varsigma, abs=1e-12)


def test_staircase_negative_time(sample_cert):
    with pytest.raises(NegativeTime):
        staircase(sample_cert, -0.1)
    with pytest.raises(NegativeTime):
        sample_staircase(sample_cert, [-1.0, 0.0])


def test_certificate_serialization(sample_cert):
    payload = sample_cert.to_dict()
    assert set(payload) == {"eta", "varsigma", "p", "q", "mu", "T_star",
                            "constant_bound", "T", "per_component_T"}
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["mu"] == sample_cert.mu
    assert back["eta"] == sample_cert.eta.tolist()
    assert back["T_star"] == sample_cert.T_star
