import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cdde_bound import stability
from cdde_bound.cli import main
from cdde_bound.linalg import SingularMatrix, inverse, solve
from cdde_bound.model import SystemSpec
from cdde_bound.stability import (NotMetzler, NotNonnegative, NotStable,
                                  alpha_max, check_joint_condition,
                                  coupling_matrix, is_metzler_hurwitz,
                                  is_schur_nonneg)

from conftest import SAMPLE_PROBLEM, random_metzler_hurwitz


def test_metzler_hurwitz_trivial():
    assert is_metzler_hurwitz([[-1.0]])
    assert not is_metzler_hurwitz([[0.0]])      # singular
    assert not is_metzler_hurwitz([[1.0]])


def test_metzler_hurwitz_sample(sample_spec):
    assert is_metzler_hurwitz(sample_spec.A)


def test_metzler_precondition():
    with pytest.raises(NotMetzler):
        is_metzler_hurwitz([[-1.0, -0.5], [0.0, -1.0]])


def test_schur_trivial(sample_spec):
    assert is_schur_nonneg([[0.5]])
    assert not is_schur_nonneg(np.eye(2))       # I - D singular
    assert is_schur_nonneg(sample_spec.D)


def test_schur_precondition():
    with pytest.raises(NotNonnegative):
        is_schur_nonneg([[-0.1]])


def test_joint_condition_sample(sample_spec):
    report = check_joint_condition(sample_spec)
    assert report.a_is_metzler and report.bcd_nonnegative and report.d_is_schur
    assert report.joint_condition_holds
    assert report.witness_p.min() > 0 and report.witness_q.min() > 0
    # the witness pair satisfies the strict inequalities it certifies
    assert (sample_spec.A @ report.witness_p + sample_spec.B @ report.witness_q < 0).all()
    assert (sample_spec.C @ report.witness_p
            + (sample_spec.D - np.eye(2)) @ report.witness_q < 0).all()


def test_joint_condition_decoupled_scalar():
    spec = SystemSpec(A=[[-1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], h_max=0.0,
                      omega_bar=[0.0], d_bar=[0.0], psi_bar=[0.0], phi_bar=[0.0])
    report = check_joint_condition(spec)
    assert report.joint_condition_holds
    assert report.witness_p == pytest.approx([1.0])
    assert report.witness_q == pytest.approx([1.0])


def test_joint_condition_unstable_scalar():
    spec = SystemSpec(A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], h_max=0.0,
                      omega_bar=[0.0], d_bar=[0.0], psi_bar=[0.0], phi_bar=[0.0])
    assert not check_joint_condition(spec).joint_condition_holds


def test_joint_condition_singular_coupling_diagnostic():
    # A = 0 and D = 0 make the coupling matrix singular
    spec = SystemSpec(A=[[0.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], h_max=0.0,
                      omega_bar=[0.0], d_bar=[0.0], psi_bar=[0.0], phi_bar=[0.0])
    report = check_joint_condition(spec)
    assert not report.joint_condition_holds
    assert report.diagnostic == "coupling matrix singular: exact zero pivot"


def x1_in_units(spec: SystemSpec, unit: float) -> SystemSpec:
    """``spec`` with ``x_1`` measured in ``unit``: ``x_1`` scales by
    ``1 / unit``, and so do row 1 of ``A`` and ``B``, ``omega_bar_1`` and
    ``psi_bar_1``, while column 1 of ``A`` and ``C`` scales by ``unit``."""
    s = np.ones(spec.n)
    s[0] = 1.0 / unit
    return SystemSpec(A=s[:, None] * spec.A / s, B=s[:, None] * spec.B, C=spec.C / s,
                      D=spec.D, h_max=spec.h_max, omega_bar=s * spec.omega_bar,
                      d_bar=spec.d_bar, psi_bar=s * spec.psi_bar, phi_bar=spec.phi_bar)


def test_joint_condition_accepts_x1_in_units_of_1e_minus_12(sample_spec, tmp_path, capsys):
    """The coupling matrix's entries span 2e-13 to 3e11, and one pivot of
    its LU is 8e-13 of the largest entry: only an exact zero pivot refuses
    the solve, the witness proves the matrix Hurwitz, and ``check`` passes."""
    spec = x1_in_units(sample_spec, 1e-12)
    assert check_joint_condition(spec).joint_condition_holds
    fields = ("A", "B", "C", "D", "h_max", "omega_bar", "d_bar", "psi_bar", "phi_bar")
    path = tmp_path / "x1-units.json"
    path.write_text(json.dumps({"system": {f: np.asarray(getattr(spec, f)).tolist()
                                           for f in fields}}))
    assert main(["check", str(path)]) == 0
    assert "PASS joint stability condition" in capsys.readouterr().out


def test_joint_condition_xi_validation(sample_spec):
    with pytest.raises(ValueError):
        check_joint_condition(sample_spec, xi=[1.0, 1.0])
    with pytest.raises(ValueError):
        check_joint_condition(sample_spec, xi=[1.0, 1.0, 1.0, 1.0, 0.0])


def test_alpha_max_scalar():
    assert alpha_max([[-1.0]], 1e-3) == pytest.approx(0.999, abs=1e-12)


def test_alpha_max_diagonal():
    assert alpha_max(np.diag([-2.0, -1.0]), 1e-3) == pytest.approx(0.999, abs=1e-12)


def test_alpha_max_sample_matches_charpoly_oracle(sample_spec):
    # independent oracle: spectral abscissa from the characteristic cubic
    a = sample_spec.A
    c2 = -np.trace(a)
    c1 = sum(a[i, i] * a[j, j] - a[i, j] * a[j, i]
             for i in range(3) for j in range(i + 1, 3))
    c0 = -np.linalg.det(a)
    s = max(r.real for r in np.roots([1.0, c2, c1, c0]))
    expected = math.floor(-s / 1e-3) * 1e-3
    assert alpha_max(a, 1e-3) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.741, abs=1e-12)


def test_alpha_max_starts_at_the_margin(sample_spec, monkeypatch):
    # the computed spectral abscissa puts the start on alpha_max: one test
    # of A, one at the start and one just past it
    calls = []
    real = stability._hurwitz
    monkeypatch.setattr(stability, "_hurwitz", lambda *args: calls.append(args) or real(*args))
    assert alpha_max(sample_spec.A, 1e-3) == pytest.approx(1.741, abs=1e-12)
    assert len(calls) == 3


def test_positive_diagonal_is_not_hurwitz():
    # the row sums of -inv(M), -1e-12 here, are no positive witness,
    # however small they are
    assert not is_metzler_hurwitz([[1e12]])
    assert not is_schur_nonneg([[1e12 + 1.0]])


def test_negative_off_diagonal_inside_the_tolerance_is_not_hurwitz():
    """Off-diagonal entries of -5e-13, inside any sign tolerance of the
    usual 1e-12, are negative, and the Metzler and nonnegativity checks
    refuse them.  These matrices have the eigenvalue 4e-13 and the spectral
    radius 1 + 4e-13, yet the row sums of -inv(M) are positive and ``M v``
    is about -1: the witness test, read through the Metzler majorant with
    +5e-13 off the diagonal, refuses them on its own."""
    a = np.array([[-1e-13, -5e-13], [-5e-13, -1e-13]])
    with pytest.raises(NotMetzler, match=r"^off-diagonal entry -5e-13 is negative$"):
        is_metzler_hurwitz(a)
    with pytest.raises(NotNonnegative, match=r"^entry -5e-13 is negative$"):
        is_schur_nonneg(a + np.eye(2))
    with pytest.raises(NotMetzler):
        alpha_max(a, 1e-15)
    v = -inverse(a).sum(axis=1)
    assert (v > 0.0).all() and (a @ v < 0.0).all()
    assert not stability._is_witness(a, v)


def test_alpha_max_in_fast_time_units():
    assert alpha_max([[-1e13]], 1e12) == 9e12
    assert alpha_max([[-1e13]], 3e12) == 9e12


def test_alpha_max_requires_stability():
    with pytest.raises(NotStable):
        alpha_max([[1.0]], 1e-3)


def test_alpha_max_grid_boundary():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, _ = random_metzler_hurwitz(rng)
        step = 0.01
        amax = alpha_max(a, step)
        eye = np.eye(3)
        assert is_metzler_hurwitz(a + amax * eye)
        assert not is_metzler_hurwitz(a + (amax + step) * eye)
        # spot-check interior grid points
        for frac in (0.25, 0.5, 0.75):
            k = int(frac * amax / step)
            assert is_metzler_hurwitz(a + (k * step) * eye)


def test_hurwitz_agrees_with_witness_characterization():
    # For Metzler A: Hurwitz iff some v > 0 solves A v = -1.
    rng = np.random.default_rng(42)
    checked_stable = checked_unstable = 0
    for _ in range(200):
        n = 3
        off = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(off, 0.0)
        dominance = rng.uniform(0.5, 1.5, size=n)
        a = off.copy()
        np.fill_diagonal(a, -off.sum(axis=1) * dominance - rng.uniform(-0.3, 0.3, n))
        try:
            v = solve(a, -np.ones(n))
            witness = bool((v > 0).all())
        except SingularMatrix:
            witness = False
        got = is_metzler_hurwitz(a)
        assert got == witness
        checked_stable += got
        checked_unstable += not got
    assert checked_stable > 20 and checked_unstable > 20


def test_joint_condition_equivalent_characterizations():
    # positive-witness solve vs Hurwitz-of-A plus Schur-of-closed-coupling
    rng = np.random.default_rng(2024)
    agree_true = agree_false = 0
    for _ in range(200):
        a, _ = random_metzler_hurwitz(rng, coupling=rng.uniform(0.1, 1.0))
        scale = 10 ** rng.uniform(-1.5, 0.2)
        b = rng.uniform(0.0, scale, size=(3, 2))
        c = rng.uniform(0.0, scale, size=(2, 3))
        d = rng.uniform(0.0, 0.8, size=(2, 2))
        spec = SystemSpec(A=a, B=b, C=c, D=d, h_max=1.0,
                          omega_bar=[0.0] * 3, d_bar=[0.0] * 2,
                          psi_bar=[0.0] * 3, phi_bar=[0.0] * 2)
        via_witness = check_joint_condition(spec).joint_condition_holds
        if is_metzler_hurwitz(a) and is_schur_nonneg(d):
            closed = c @ inverse(-a) @ b + d
            via_closed = is_schur_nonneg(closed)
        else:
            via_closed = False
        assert via_witness == via_closed
        agree_true += via_witness
        agree_false += not via_witness
    assert agree_true > 20 and agree_false > 20


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-200])
def test_joint_condition_is_free_of_the_scale_of_xi(sample_spec, scale, capsys):
    """The witness is accepted on its residual, not on a threshold: at any
    scale of ``xi`` the sample's ``v`` is positive with ``M v < 0`` exactly,
    and ``check`` passes."""
    report = check_joint_condition(sample_spec, xi=scale * np.ones(5))
    assert report.joint_condition_holds
    v = np.concatenate((report.witness_p, report.witness_q))
    exact = [sum(Fraction(float(a)) * Fraction(float(b)) for a, b in zip(row, v))
             for row in coupling_matrix(sample_spec)]
    assert (v > 0.0).all() and all(r < 0 for r in exact)
    assert main(["check", str(SAMPLE_PROBLEM), "--xi", ",".join([repr(scale)] * 5)]) == 0
    assert "PASS joint stability condition" in capsys.readouterr().out


def test_witness_test_counts_underflow():
    """Row 0 of ``M v`` is exactly 0, its products 3, 1 and 2 halves of
    the smallest subnormal; rounded one at a time they sum to -2^-1074, and
    the rounding bound, 3e-15 of that, underflows to 0.  The underflow term
    ``n 2^-1074`` refuses the pair, and passes it once ``M[0, 0]`` is 4
    times larger, which makes row 0 exactly -9 halves."""
    m = np.array([[-3 * 2.0**-60, 2.0**-60, 2.0**-59], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    v = np.full(3, 2.0**-1015)
    assert not stability._is_witness(m, v)
    m[0, 0] *= 4.0
    assert stability._is_witness(m, v)


def test_coupling_matrix_layout(sample_spec):
    m = coupling_matrix(sample_spec)
    assert m.shape == (5, 5)
    assert np.array_equal(m[:3, :3], sample_spec.A)
    assert np.array_equal(m[:3, 3:], sample_spec.B)
    assert np.array_equal(m[3:, :3], sample_spec.C)
    assert np.array_equal(m[3:, 3:], sample_spec.D - np.eye(2))
