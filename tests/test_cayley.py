"""Tests for the Cayley parameterizations.

Frozen expectations below were derived by hand from the closed forms:
for S = [[0, -s], [s, 0]] the Cayley image is
P = [[1-s^2, 2s], [-2s, 1-s^2]] / (1+s^2), a plane rotation by
-2*arctan(s); and lam(t) = (pi + 2 arctan t)/(pi - 2 arctan t) gives
lam(0) = 1, lam(1) = 3, lam(-1) = 1/3, with dlam/dt = 4/pi at zero.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcv.cayley import (
    SO_STAR_MARGIN,
    DiagParams,
    NotInSOStarError,
    OrthogonalMatrix,
    SkewParams,
    cayley_forward,
    cayley_inverse,
    dlambda_dt,
    is_in_so_star,
    lambda_from_t,
    pack_skew,
    so_star_path,
    t_from_lambda,
    unpack_skew,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestPackUnpack:
    def test_row_major_order(self):
        # 3x3 with S21=a, S31=b, S32=c packs to [a, b, c]
        a, b, c = 0.5, -1.25, 2.0
        S = np.array([
            [0.0, -a, -b],
            [a, 0.0, -c],
            [b, c, 0.0],
        ])
        p = pack_skew(S)
        np.testing.assert_array_equal(p.entries, [a, b, c])

    def test_round_trip_is_bitwise(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 9):
            entries = rng.standard_normal(n * (n - 1) // 2)
            p = SkewParams(entries=entries, dim=n)
            back = pack_skew(unpack_skew(p))
            assert np.array_equal(back.entries, p.entries)
            assert back.dim == n

    def test_unpacked_matrix_is_exactly_skew(self):
        p = SkewParams(entries=np.array([1.0, -2.0, 3.0]), dim=3)
        S = unpack_skew(p)
        np.testing.assert_array_equal(S, -S.T)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            pack_skew(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SkewParams(entries=np.zeros(2), dim=3)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, n, seed):
        entries = np.random.default_rng(seed).uniform(-10, 10, n * (n - 1) // 2)
        back = pack_skew(unpack_skew(SkewParams(entries=entries, dim=n)))
        assert np.array_equal(back.entries, entries)


class TestCayleyForward:
    def test_two_by_two_closed_form(self):
        # s=1: P = [[0, 1], [-1, 0]] from the hand-derived closed form.
        S = unpack_skew(SkewParams(entries=np.array([1.0]), dim=2))
        P = cayley_forward(S)
        np.testing.assert_allclose(P.values, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_two_by_two_closed_form_grid(self):
        for s in (-3.0, -1.0, -0.25, 0.5, 2.0, 10.0):
            S = np.array([[0.0, -s], [s, 0.0]])
            expected = np.array([[1 - s**2, 2 * s], [-2 * s, 1 - s**2]]) / (1 + s**2)
            np.testing.assert_allclose(cayley_forward(S).values, expected, atol=1e-14)

    def test_zero_maps_to_identity_exactly(self):
        P = cayley_forward(np.zeros((4, 4)))
        np.testing.assert_array_equal(P.values, np.eye(4))

    def test_orthogonality_and_determinant(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 8, 64):
            S = unpack_skew(SkewParams(entries=rng.uniform(-5, 5, n * (n - 1) // 2), dim=n))
            P = cayley_forward(S)
            np.testing.assert_allclose(P.values.T @ P.values, np.eye(n), atol=1e-10)
            assert abs(np.linalg.det(P.values) - 1.0) < 1e-8

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for n in (2, 6, 32):
            S = unpack_skew(SkewParams(entries=rng.uniform(-5, 5, n * (n - 1) // 2), dim=n))
            S_back = cayley_inverse(cayley_forward(S))
            np.testing.assert_allclose(S_back, S, atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            cayley_forward(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", (2, 16, 64, 128))
    def test_half_of_i_plus_p_inverts_i_plus_s(self, n):
        # (I + S)(I + P) = (I + S) + (I - S) = 2I, which lets gradients
        # chain through P without a solve.
        rng = np.random.default_rng(n)
        eye = np.eye(n)
        for scale in (0.1, 1.0, 5.0, 50.0, 1e3):
            S = unpack_skew(SkewParams(entries=rng.uniform(-scale, scale, n * (n - 1) // 2), dim=n))
            np.testing.assert_allclose((eye + cayley_forward(S).values) / 2, np.linalg.inv(eye + S),
                                       rtol=0, atol=1e-12, err_msg=f"scale {scale}")


class TestCayleyInverse:
    def test_quarter_turn(self):
        # The plane rotation [[0, 1], [-1, 0]] (a 90-degree turn) has
        # preimage S21 = +1; the opposite turn flips the sign.
        S = cayley_inverse(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(S, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
        S_opp = cayley_inverse(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert S_opp[1, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_result_is_exactly_skew(self):
        rng = np.random.default_rng(3)
        S = unpack_skew(SkewParams(entries=rng.uniform(-2, 2, 10), dim=5))
        back = cayley_inverse(cayley_forward(S))
        np.testing.assert_array_equal(back, -back.T)

    def test_rejects_half_turn(self):
        # Rotation by pi has eigenvalues {-1, -1}: no preimage exists.
        with pytest.raises(NotInSOStarError) as excinfo:
            cayley_inverse(rotation(np.pi))
        assert abs(excinfo.value.nearest_eigenvalue + 1.0) < 1e-12

    def test_rejects_reflection(self):
        with pytest.raises(NotInSOStarError):
            cayley_inverse(np.diag([1.0, -1.0]))

    def test_accepts_orthogonal_matrix_wrapper(self):
        P = OrthogonalMatrix(rotation(0.3))
        S = cayley_inverse(P)
        np.testing.assert_allclose(S[1, 0], np.tan(-0.15), atol=1e-12)


class TestIsInSOStar:
    def test_identity_is_member(self):
        check = is_in_so_star(np.eye(3))
        assert check
        assert check.determinant == pytest.approx(1.0)
        assert check.gap_to_minus_one == pytest.approx(2.0)

    def test_half_turn_is_not(self):
        check = is_in_so_star(rotation(np.pi))
        assert not check
        assert abs(check.nearest_eigenvalue + 1.0) < 1e-12

    def test_margin_is_respected(self):
        # Rotation by pi - 1e-9 is orthogonal with determinant 1, but its
        # eigenvalues sit closer to -1 than the margin.
        check = is_in_so_star(rotation(np.pi - 1e-9))
        assert not check
        assert check.orthogonality_error <= 1e-8 and check.determinant > 0
        assert check.gap_to_minus_one < SO_STAR_MARGIN

    def test_non_orthogonal_fails(self):
        assert not is_in_so_star(np.eye(2) * 1.001)

    def test_negative_determinant_fails(self):
        check = is_in_so_star(np.diag([1.0, 1.0, -1.0]))
        assert not check
        assert check.determinant < 0


class TestLambdaMaps:
    def test_anchor_values(self):
        t = np.array([0.0, 1.0, -1.0])
        lam = lambda_from_t(t)
        assert lam[0] == 1.0  # exact: arctan(0) is exactly 0
        assert lam[1] == pytest.approx(3.0, abs=1e-15)
        assert lam[2] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_accepts_diag_params(self):
        lam = lambda_from_t(DiagParams(t=np.array([1.0])))
        assert lam[0] == pytest.approx(3.0, abs=1e-15)

    def test_round_trip_log_uniform(self):
        rng = np.random.default_rng(29)
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 10000))
        back = lambda_from_t(t_from_lambda(lam))
        np.testing.assert_allclose(back, lam, atol=1e-10)

    def test_derivative_at_zero_is_4_over_pi(self):
        assert dlambda_dt(np.array([0.0]))[0] == pytest.approx(4.0 / np.pi, abs=1e-15)

    def test_derivative_matches_finite_differences(self):
        t = np.array([-2.0, -0.5, 0.0, 0.7, 3.0])
        eps = 1e-6
        fd = (lambda_from_t(t + eps) - lambda_from_t(t - eps)) / (2 * eps)
        np.testing.assert_allclose(dlambda_dt(t), fd, rtol=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            t_from_lambda(np.array([1.0, 0.0]))

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_reciprocal_symmetry(self, t):
        lam = lambda_from_t(np.array([t, -t]))
        assert lam[0] * lam[1] == pytest.approx(1.0, rel=1e-12)
        assert lam[0] > 0

    @given(st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:  # below float resolution of arctan the map can tie
            return
        lam = lambda_from_t(np.array([lo, hi]))
        assert lam[0] < lam[1]


    @given(st.floats(min_value=-1e300, max_value=1e300), st.floats(min_value=-1e300, max_value=1e300))
    @settings(max_examples=300, deadline=None)
    def test_safe_in_float64_up_to_1e300(self, a, b):
        # Monotone, finite and positive, reciprocal under t -> -t to a few
        # ulp, invertible, and silent: any numpy warning fails the test.
        lo, hi = sorted((a, b))
        t = np.array([lo, hi, -lo])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = lambda_from_t(t)
            slope = dlambda_dt(t)
            back = t_from_lambda(lam).t
        assert np.all(np.isfinite(lam)) and np.all(lam > 0)
        assert lam[0] <= lam[1]
        assert abs(lam[0] * lam[2] - 1.0) <= 4 * np.finfo(float).eps
        assert np.all(np.isfinite(slope)) and np.all(slope >= 0)
        np.testing.assert_allclose(back, t, rtol=1e-12, atol=1e-15)


class TestSOStarPath:
    def test_quarter_turn_midpoint(self):
        # Halving a 90-degree turn must give the 45-degree turn.
        P = cayley_forward(unpack_skew(SkewParams(entries=np.array([1.0]), dim=2)))
        path = so_star_path(P, 2)
        assert len(path) == 3
        np.testing.assert_allclose(path[0].values, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(path[1].values, rotation(-np.pi / 4), atol=1e-12)
        np.testing.assert_allclose(path[2].values, P.values, atol=1e-12)

    def test_identity_endpoint_stays_identity(self):
        path = so_star_path(OrthogonalMatrix(np.eye(4)), 5)
        assert len(path) == 6
        for q in path:
            np.testing.assert_allclose(q.values, np.eye(4), atol=1e-12)

    def test_random_endpoints_and_membership(self):
        rng = np.random.default_rng(17)
        for n in (3, 4, 8):
            S = unpack_skew(SkewParams(entries=rng.uniform(-2, 2, n * (n - 1) // 2), dim=n))
            P = cayley_forward(S)
            path = so_star_path(P, 10)
            assert len(path) == 11
            assert np.max(np.abs(path[0].values - np.eye(n))) < 1e-8
            assert np.max(np.abs(path[-1].values - P.values)) < 1e-8
            for q in path:
                assert is_in_so_star(q.values)

    @pytest.mark.parametrize(
        "n, angles",
        [(7, (0.4, -1.3, 2.9)), (6, (0.7, 0.7)), (5, (np.pi - 1e-7, 1.0)), (4, ())],
        ids=["distinct", "repeated", "near-half-turn", "identity"],
    )
    def test_path_scales_the_angles(self, n, angles):
        # The path is the angle-scaling geodesic t -> P**t, not just any
        # path inside SO*(n): point k turns each plane by k/steps of P's
        # angle, and the points compose like powers of one rotation.
        steps = 6
        D = np.eye(n)
        for i, theta in enumerate(angles):
            D[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation(theta)
        Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
        P = OrthogonalMatrix(Q @ D @ Q.T)
        path = [q.values for q in so_star_path(P, steps)]
        full = np.sort(np.angle(np.linalg.eigvals(P.values)))
        for k, q in enumerate(path):
            np.testing.assert_allclose(
                np.sort(np.angle(np.linalg.eigvals(q))), k / steps * full, rtol=0, atol=1e-12
            )
            for j in range(steps + 1 - k):
                np.testing.assert_allclose(path[j] @ q, path[j + k], rtol=0, atol=1e-12)
        np.testing.assert_allclose(path[-1], P.values, rtol=0, atol=1e-12)

    def test_rejects_half_turn_endpoint(self):
        with pytest.raises(NotInSOStarError):
            so_star_path(OrthogonalMatrix(rotation(np.pi)), 4)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            so_star_path(OrthogonalMatrix(np.eye(2)), 0)


class TestOrthogonalMatrix:
    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            OrthogonalMatrix(np.diag([1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            OrthogonalMatrix(np.eye(2) * 1.001)

    def test_values_are_read_only(self):
        P = OrthogonalMatrix(np.eye(3))
        with pytest.raises(ValueError):
            P.values[0, 0] = 2.0
