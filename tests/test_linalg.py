import numpy as np
import pytest

from cdde_bound.linalg import (DimensionMismatch, SingularMatrix, as_matrix,
                               as_vector, cmp_leq, inverse, solve)


def test_solve_identity():
    assert np.allclose(solve(np.eye(2), [3.0, 4.0]), [3.0, 4.0])


def test_solve_diagonal():
    assert np.allclose(solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 2.0]), [1.0, 0.5])


def test_solve_rank_deficient_raises():
    with pytest.raises(SingularMatrix):
        solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])


def test_solve_zero_matrix_raises():
    with pytest.raises(SingularMatrix):
        solve([[0.0]], [1.0])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        solve(np.ones((2, 3)), [1.0, 2.0])


def test_solve_residual_on_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        # diagonal shift keeps the condition number moderate
        m = rng.standard_normal((n, n)) + (n + 1) * np.eye(n)
        rhs = rng.standard_normal(n) * rng.uniform(0.1, 100)
        x = solve(m, rhs)
        res = np.abs(m @ x - rhs).max()
        assert res <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_solve_residual_under_moderate_conditioning():
    # condition numbers up to ~1e6 via controlled singular values
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sing = np.logspace(0.0, -rng.uniform(1.0, 5.9), n)
        m = u @ np.diag(sing) @ v
        rhs = rng.standard_normal(n)
        x = solve(m, rhs)
        assert np.abs(m @ x - rhs).max() <= 1e-8 * (1.0 + np.abs(rhs).max())


def test_inverse_identity_and_scalar():
    assert np.allclose(inverse(np.eye(3)), np.eye(3))
    assert np.allclose(inverse([[-1.0]]), [[-1.0]])


def test_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = rng.standard_normal((n, n)) + (n + 1) * np.eye(n)
        again = inverse(inverse(m))
        assert np.abs(again - m).max() <= 1e-6 * max(1.0, np.abs(m).max())


def test_inverse_sign_pattern_vs_cofactor_oracle():
    # 3x3 Metzler-Hurwitz matrix: the inverse must be entrywise <= 0.
    m = np.array([[-2.5, 0.3, 0.0], [0.5, -2.0, 0.1], [0.4, 0.6, -3.0]])

    def cofactor_inverse(a):
        det = (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
               - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
               + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
        cof = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
                cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1]
                                               - minor[0, 1] * minor[1, 0])
        return cof.T / det

    expected = cofactor_inverse(m)
    got = inverse(m)
    assert np.abs(got - expected).max() <= 1e-12
    assert (got <= 0.0).all()


def test_stack_members_have_their_own_pivot_threshold():
    # a threshold shared across the stack would call the tiny member singular
    stack = np.stack([1e-15 * np.eye(3), 1e3 * np.eye(3)])
    got = inverse(stack)
    assert np.array_equal(got[0], inverse(stack[0]))
    assert np.array_equal(got[1], inverse(stack[1]))


def test_inverse_names_near_singular_member():
    # condition about 4e13, above 1 / PIVOT_RTOL: LAPACK inverts it, the
    # condition test rejects it
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert np.isfinite(np.linalg.inv(near)).all()
    stack = np.stack([np.eye(2), 3.0 * np.eye(2), near, np.eye(2)])
    with pytest.raises(SingularMatrix, match=r"reciprocal condition .* in stack member 2$"):
        inverse(stack)
    with pytest.raises(SingularMatrix, match=r"below threshold 1\.000e-12$"):
        inverse(near)


def test_inverse_names_exactly_singular_member():
    exact = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(exact)
    stack = np.stack([np.eye(3), exact, np.eye(3)])
    with pytest.raises(SingularMatrix, match="exactly singular in stack member 1$"):
        inverse(stack)
    with pytest.raises(SingularMatrix, match="exactly singular$"):
        inverse(exact)


def test_cmp_leq_basic():
    assert cmp_leq([1.0, 2.0], [1.0, 2.0], 0.0)
    assert not cmp_leq([1.0, 3.0], [1.0, 2.0], 0.0)
    assert cmp_leq([1.0, 2.0 + 1e-9], [1.0, 2.0], 1e-8)


def test_cmp_leq_errors():
    with pytest.raises(DimensionMismatch):
        cmp_leq([1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        cmp_leq([1.0], [1.0], -1e-3)


def test_cmp_leq_partial_order_props():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.standard_normal(4)
        v = u + rng.uniform(0, 1, 4)
        w = v + rng.uniform(0, 1, 4)
        assert cmp_leq(u, u, 0.0)                      # reflexive
        s1, s2 = rng.uniform(0, 1e-6, 2)
        if cmp_leq(u, v, s1) and cmp_leq(v, w, s2):    # transitive under slack addition
            assert cmp_leq(u, w, s1 + s2)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_vector([np.inf])
