import math

import numpy as np
import pytest

from splitmono.linalg import (ALIGN_MIN_BYTES, BlockLayout, aligned, aligned_empty, at_most,
                              operator_norm, spd_inverse, split_symmetric_skew,
                              strictly_below, symmetric_min_eig)


class TestConditionMargin:
    def test_strict_condition_needs_the_margin(self):
        assert strictly_below(1.0 - 1e-11, 1.0)
        assert not strictly_below(1.0 - 1e-13, 1.0)
        assert not strictly_below(1.0, 1.0)
        # relative to |rhs| above 1, absolute below it
        assert not strictly_below(1e6 * (1.0 - 1e-13), 1e6)
        assert strictly_below(1e-3 - 2e-12, 1e-3)
        assert not strictly_below(1e-3 - 5e-13, 1e-3)

    def test_non_strict_condition_grants_the_margin(self):
        assert at_most(1.0 + 1e-13, 1.0)
        assert not at_most(1.0 + 1e-11, 1.0)
        assert at_most(1e6 * (1.0 + 1e-13), 1e6)

    def test_infinite_bound_bounds_nothing(self):
        # inf - margin * inf is NaN; an absent bound must still accept
        assert strictly_below(1e300, math.inf)
        assert at_most(1e300, math.inf)
        assert not strictly_below(math.inf, math.inf)

    def test_nan_fails(self):
        assert not strictly_below(math.nan, 1.0)
        assert not at_most(math.nan, 1.0)
        assert not strictly_below(0.0, math.nan)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)

    def test_skew_rotation(self):
        # singular values of [[0,1],[-1,0]] are both 1 (M^T M = I)
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert operator_norm(M) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5), (5, 3)],
                             ids=["1x1", "2x2", "3x5", "5x3"])
    def test_zero_matrix_has_norm_zero(self, shape, monkeypatch):
        # a zero matrix takes no LAPACK call
        for name in ("norm", "svd", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, None)
        assert operator_norm(np.zeros(shape)) == 0.0

    def test_dominates_random_directions(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 9))
        sigma = operator_norm(M)
        for _ in range(100):
            x = rng.standard_normal(9)
            x /= np.linalg.norm(x)
            assert sigma >= np.linalg.norm(M @ x) - 1e-10 * sigma

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            M = rng.standard_normal((5, 4))
            ref = np.linalg.svd(M, compute_uv=False)[0]
            assert operator_norm(M) == pytest.approx(ref, rel=1e-9)


def _symmetric_indefinite(rng):
    # eigenvalues of the symmetric Gaussian part lie in about +-14: shifted
    # by -5 they straddle zero with |lambda_min| > lambda_max
    G = rng.standard_normal((100, 100))
    return (G + G.T) / 2.0 - 5.0 * np.eye(100)


ROUTE_CASES = {
    "gaussian-100x200": lambda rng: rng.standard_normal((100, 200)),
    "gaussian-200x100": lambda rng: rng.standard_normal((200, 100)),
    "skew-200": lambda rng: (lambda G: G - G.T)(rng.standard_normal((200, 200))),
    "orthogonal-200": lambda rng: np.linalg.qr(rng.standard_normal((200, 200)))[0],
    "rows-scaled-1e+-8": lambda rng: (rng.standard_normal((60, 80))
                                      * np.logspace(-8, 8, 60)[:, None]),
    "rank1-plus-noise": lambda rng: (np.outer(rng.standard_normal(50), rng.standard_normal(70))
                                     + 1e-10 * rng.standard_normal((50, 70))),
    "integer": lambda rng: rng.integers(-9, 10, (40, 60)).astype(float),
    "symmetric-indefinite": _symmetric_indefinite,
    "row": lambda rng: rng.standard_normal((1, 300)),
    "column": lambda rng: rng.standard_normal((300, 1)),
    # the routes that square the entries rescale first: no overflow or underflow
    "entries-1e200": lambda rng: 1e200 * rng.standard_normal((30, 40)),
    "entries-1e-200": lambda rng: 1e-200 * rng.standard_normal((40, 30)),
}


class TestOperatorNormRoutes:
    @pytest.mark.parametrize("case", list(ROUTE_CASES))
    def test_agrees_with_the_svd(self, case):
        A = ROUTE_CASES[case](np.random.default_rng(31))
        ref = np.linalg.svd(A, compute_uv=False)[0]
        assert abs(operator_norm(A) - ref) <= 1e-13 * ref

    def test_symmetric_case_is_indefinite_with_dominant_negative_end(self):
        lam = np.linalg.eigvalsh(_symmetric_indefinite(np.random.default_rng(31)))
        assert lam[0] < 0.0 < lam[-1] and -lam[0] > lam[-1]

    @staticmethod
    def _record_eigvalsh(monkeypatch):
        inputs = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            inputs.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        return inputs

    @staticmethod
    def _forbid(monkeypatch, *names):
        def refuse(*args, **kwargs):
            raise AssertionError("this route runs no such routine")

        for name in names:
            monkeypatch.setattr(np.linalg, name, refuse)

    def test_symmetric_input_takes_one_eigensolve_of_itself(self, monkeypatch):
        A = _symmetric_indefinite(np.random.default_rng(2))[:40, :40]
        ref = np.linalg.svd(A, compute_uv=False)[0]
        self._forbid(monkeypatch, "svd", "norm")
        inputs = self._record_eigvalsh(monkeypatch)
        assert operator_norm(A) == pytest.approx(ref, rel=1e-13)
        assert len(inputs) == 1 and np.array_equal(inputs[0], A)

    def test_wide_input_takes_the_eigenvalues_of_its_small_gram_matrix(self, monkeypatch):
        for A in (np.random.default_rng(3).standard_normal((3, 500)),
                  np.random.default_rng(3).standard_normal((500, 3))):
            ref = np.linalg.svd(A, compute_uv=False)[0]
            self._forbid(monkeypatch, "svd", "norm")
            inputs = self._record_eigvalsh(monkeypatch)
            assert operator_norm(A) == pytest.approx(ref, rel=1e-13)
            assert [a.shape for a in inputs] == [(3, 3)]
            monkeypatch.undo()

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1)], ids=["row", "column", "1x1"])
    def test_vector_takes_no_lapack_call(self, shape, monkeypatch):
        A = -np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        ref = math.sqrt(float(np.sum(A * A)))
        self._forbid(monkeypatch, "svd", "norm", "eigvalsh", "eigh", "eigvals")
        assert operator_norm(A) == pytest.approx(ref, rel=1e-15)


class TestSymmetricMinEig:
    def test_diagonal(self):
        assert symmetric_min_eig(np.diag([2.0, 5.0])) == pytest.approx(2.0, abs=1e-9)

    def test_two_by_two(self):
        # eigenvalues of [[2,1],[1,2]] are 2 +- 1
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert symmetric_min_eig(M) == pytest.approx(1.0, abs=1e-9)

    def test_identity(self):
        assert symmetric_min_eig(np.eye(4)) == pytest.approx(1.0, abs=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_min_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rayleigh_upper_bound(self):
        rng = np.random.default_rng(7)
        G = rng.standard_normal((5, 5))
        M = (G + G.T) / 2
        lam = symmetric_min_eig(M)
        for _ in range(100):
            x = rng.standard_normal(5)
            assert lam <= (x @ M @ x) / (x @ x) + 1e-9

    def test_clustered_bottom_spectrum(self):
        # the smallest eigenvalues of H'H/4 + 2I crowd together near 2, where
        # an iterative method converges at the ratio of neighbouring ones
        H = np.random.default_rng(0).standard_normal((100, 100)) / 10
        M = H.T @ H / 4 + 2 * np.eye(100)
        ref = np.linalg.eigvalsh(M)[0]
        assert symmetric_min_eig(M) == pytest.approx(ref, rel=1e-12)


class TestSplitSymmetricSkew:
    def test_basic_example(self):
        P = np.array([[2.0, 1.0], [0.0, 2.0]])
        U, S = split_symmetric_skew(P)
        assert np.array_equal(U, np.array([[2.0, 0.5], [0.5, 2.0]]))
        assert np.array_equal(S, np.array([[0.0, 0.5], [-0.5, 0.0]]))

    def test_symmetric_input(self):
        P = np.array([[3.0, 1.0], [1.0, 4.0]])
        U, S = split_symmetric_skew(P)
        assert np.array_equal(U, P)
        assert not np.any(S)

    def test_skew_input(self):
        P = np.array([[0.0, 2.0], [-2.0, 0.0]])
        U, S = split_symmetric_skew(P)
        assert not np.any(U)
        assert np.array_equal(S, P)

    def test_parts_exactly_symmetric_and_skew(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            P = rng.standard_normal((7, 7))
            U, S = split_symmetric_skew(P)
            assert np.array_equal(U, U.T)
            assert np.array_equal(S, -S.T)

    def test_bitwise_reconstruction_on_representable_data(self):
        # (P_ij + P_ji)/2 is exact for integer entries, so U + S == P bitwise
        rng = np.random.default_rng(9)
        for _ in range(50):
            P = rng.integers(-50, 50, size=(6, 6)).astype(float)
            U, S = split_symmetric_skew(P)
            assert np.array_equal(U + S, P)

    def test_reconstruction_within_one_ulp_generic(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(13)
        for _ in range(50):
            P = rng.standard_normal((6, 6))
            U, S = split_symmetric_skew(P)
            err = np.abs(U + S - P)
            assert np.all(err <= 8 * eps * np.maximum(np.abs(U) + np.abs(S), 1.0))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            split_symmetric_skew(np.ones((2, 3)))


class TestSolveSpd:
    """SPD solves as the preconditioner runs them: ``spd_inverse(U) @ b``."""

    def test_identity(self):
        assert np.allclose(spd_inverse(np.eye(2)) @ [1.0, 2.0], [1.0, 2.0])

    def test_diagonal(self):
        x = spd_inverse(np.diag([2.0, 4.0])) @ [2.0, 4.0]
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_two_by_two_oracle(self):
        # inverse of [[2,.5],[.5,2]] applied to (1,0): det = 15/4
        U = np.array([[2.0, 0.5], [0.5, 2.0]])
        x = spd_inverse(U) @ [1.0, 0.0]
        assert np.allclose(x, [8.0 / 15.0, -2.0 / 15.0], atol=1e-14)

    def test_not_positive_definite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            G = rng.standard_normal((8, 8))
            U = G.T @ G + np.eye(8)
            b = rng.standard_normal(8)
            x = spd_inverse(U) @ b
            assert np.linalg.norm(U @ x - b) <= 1e-10 * (np.linalg.norm(b) + 1.0)


class TestBlockLayout:
    def test_from_dims_and_slicing(self):
        layout = BlockLayout.from_dims([2, 3])
        assert layout.offsets == (0, 2, 5)
        assert layout.dim == 5
        v = np.arange(5.0)
        assert np.array_equal(layout.block(v, 1), [2.0, 3.0, 4.0])
        assert np.array_equal(layout.concat([layout.block(v, 0), layout.block(v, 1)]), v)

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            BlockLayout((1, 3))
        with pytest.raises(ValueError):
            BlockLayout((0, 3, 3))
        with pytest.raises(ValueError):
            BlockLayout.from_dims([2, 0])

    def test_concat_checks_total(self):
        layout = BlockLayout.from_dims([2, 2])
        with pytest.raises(ValueError):
            layout.concat([np.zeros(2), np.zeros(3)])

    def test_concat_checks_each_block(self):
        # the lengths sum to the layout's dimension but are swapped
        layout = BlockLayout.from_dims([2, 3])
        with pytest.raises(ValueError, match="block 0 has length 3"):
            layout.concat([np.arange(3), np.arange(2)])
        with pytest.raises(ValueError, match="1 blocks given for a layout of 2"):
            layout.concat([np.arange(5)])


def at_offset(M, offset):
    """A copy of M, in its order, whose data start ``offset`` bytes past a
    64-byte boundary."""
    order = "C" if M.flags.c_contiguous else "F"
    start = offset // 8
    out = aligned_empty(M.size + 8)[start:start + M.size].reshape(M.shape, order=order)
    out[...] = M
    assert out.ctypes.data % 64 == offset
    return out


class TestAlignedStorage:
    @pytest.mark.parametrize("shape", [(1,), 7, (3, 5), (100, 200), (20, 201)])
    def test_aligned_empty_starts_on_a_64_byte_boundary(self, shape):
        for _ in range(20):
            M = aligned_empty(shape)
            assert M.ctypes.data % 64 == 0
            assert M.shape == np.empty(shape).shape
            assert M.dtype == np.float64 and M.flags.c_contiguous

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("offset", [8, 16, 32, 48])
    def test_aligned_copies_a_misaligned_matrix_in_its_order(self, order, offset):
        rng = np.random.default_rng(offset)
        M = at_offset(np.asarray(rng.standard_normal((20, 40)), order=order), offset)
        A = aligned(M)
        assert A is not M and A.ctypes.data % 64 == 0
        assert A.flags.c_contiguous == M.flags.c_contiguous
        assert A.flags.f_contiguous == M.flags.f_contiguous
        assert A.tobytes(order="A") == M.tobytes(order="A")

    def test_aligned_keeps_a_small_or_aligned_matrix(self):
        small = at_offset(np.ones((1, ALIGN_MIN_BYTES // 8 - 1)), 16)
        assert aligned(small) is small
        big = aligned_empty((20, 40))
        assert aligned(big) is big
        big_t = big.T
        assert aligned(big_t) is big_t

    def test_drawing_into_aligned_storage_keeps_the_stream(self):
        for shape in [(100, 200), (5, 10), (3,)]:
            ours, ref = np.random.default_rng(7), np.random.default_rng(7)
            drawn = ours.standard_normal(out=aligned_empty(shape))
            assert drawn.tobytes() == ref.standard_normal(shape).tobytes()
            assert ours.standard_normal(9).tobytes() == ref.standard_normal(9).tobytes()


class TestGemvBitsDoNotDependOnAlignment:
    """The matrices the iterations multiply by are copied to 64-byte-aligned
    storage without changing any iterate.  That rests on BLAS's dgemv giving
    the same bits whatever the address of its matrix; this checks it."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(100, 200), (20, 200), (200, 200)])
    def test_products_are_byte_equal_at_every_offset(self, shape, order):
        rng = np.random.default_rng(sum(shape))
        M = np.asarray(rng.standard_normal(shape), order=order)
        copies = [at_offset(M, off) for off in (0, 16, 32, 48)]
        for _ in range(10):
            x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
            ref_x, ref_y = copies[0].dot(x).tobytes(), copies[0].T.dot(y).tobytes()
            for C in copies[1:]:
                assert C.dot(x).tobytes() == ref_x
                assert C.T.dot(y).tobytes() == ref_y
