import math
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catport import (
    CatState,
    DensityMatrix,
    PureState,
    RangeError,
    RegisterShape,
    ShapeMismatchError,
    SizeCapError,
    basis_ket,
    cat_to_pure_state,
    digits_to_index,
    index_to_digits,
    inner,
    partial_trace_keep,
    random_cat_state,
    tensor,
)
from catport.core import random_cat_coeffs, uniform_superposition_chain


def brute_force_partial_trace(state, keep):
    """Independent reduced-density oracle: explicit digit-tuple loops."""
    d = state.shape.d
    n = state.shape.num_qudits
    kept = sorted(keep)
    traced = [p for p in range(1, n + 1) if p not in kept]
    dim = d ** len(kept)
    rho = np.zeros((dim, dim), dtype=complex)

    def full_digits(kept_digits, traced_digits):
        digits = [0] * n
        for pos, q in zip(kept, kept_digits):
            digits[pos - 1] = q
        for pos, q in zip(traced, traced_digits):
            digits[pos - 1] = q
        return tuple(digits)

    kept_shape = RegisterShape(d, len(kept))
    for a in product(range(d), repeat=len(kept)):
        for b in product(range(d), repeat=len(kept)):
            acc = 0j
            for r in product(range(d), repeat=len(traced)):
                acc += state.amplitude(full_digits(a, r)) * np.conj(
                    state.amplitude(full_digits(b, r))
                )
            rho[digits_to_index(kept_shape, a), digits_to_index(kept_shape, b)] = acc
    return rho


class TestIndexing:
    @pytest.mark.parametrize(
        "d,n,digits,index",
        [
            (3, 2, (0, 0), 0),
            (3, 2, (2, 1), 7),
            (2, 3, (1, 0, 1), 5),
            (5, 1, (4,), 4),
        ],
    )
    def test_known_values(self, d, n, digits, index):
        shape = RegisterShape(d, n)
        assert digits_to_index(shape, digits) == index
        assert index_to_digits(shape, index) == digits

    @given(st.integers(2, 6), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, d, n, data):
        shape = RegisterShape(d, n)
        index = data.draw(st.integers(0, shape.total - 1))
        assert digits_to_index(shape, index_to_digits(shape, index)) == index

    def test_digit_out_of_range(self):
        shape = RegisterShape(3, 2)
        with pytest.raises(RangeError):
            digits_to_index(shape, (0, 3))
        with pytest.raises(RangeError):
            digits_to_index(shape, (-1, 0))

    def test_index_out_of_range(self):
        shape = RegisterShape(3, 2)
        with pytest.raises(RangeError):
            index_to_digits(shape, 9)
        with pytest.raises(RangeError):
            index_to_digits(shape, -1)


class TestRegisterShape:
    def test_cap(self):
        with pytest.raises(SizeCapError):
            RegisterShape(2, 23)
        RegisterShape(2, 23, max_dim=1 << 23)  # override allows it

    def test_cap_is_checked_without_the_full_power(self):
        # 10**9 ** 2_000_001 has 18 million digits; the check must not compute it.
        start = time.perf_counter()
        with pytest.raises(SizeCapError):
            RegisterShape(10**9, 2_000_001)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("d, n", [(2, 23), (3, 5), (10**9, 2), (7, 1)])
    def test_cap_is_inclusive(self, d, n):
        assert RegisterShape(d, n, max_dim=d**n).total == d**n
        with pytest.raises(SizeCapError):
            RegisterShape(d, n, max_dim=d**n - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterShape(1, 2)
        with pytest.raises(ValueError):
            RegisterShape(2, 0)

    def test_total_is_exact(self):
        assert RegisterShape(3, 9).total == 3**9

    def test_numpy_integers_are_stored_as_ints(self):
        # In int64, 10**19 wraps to a negative total that would pass the cap.
        with pytest.raises(SizeCapError):
            RegisterShape(np.int64(10), 19)
        shape = RegisterShape(np.int64(3), np.int32(2))
        assert type(shape.d) is type(shape.num_qudits) is type(shape.total) is int
        assert shape.total == 9
        for d, n in [(2.0, 3), (True, 3), (2, 3.0), (2, False)]:
            with pytest.raises(ValueError, match="must be an integer"):
                RegisterShape(d, n)


class TestPureState:
    def test_normalized_flag_enforced(self):
        shape = RegisterShape(2, 1)
        with pytest.raises(ValueError):
            PureState(shape, [0.5, 0.5])
        PureState(shape, [0.5, 0.5], normalized=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_rejects_non_finite_amplitudes(self, bad, normalized):
        with pytest.raises(ValueError, match="finite"):
            PureState(RegisterShape(2, 1), [1.0, bad], normalized=normalized)

    def test_amps_read_only(self):
        ket = basis_ket(RegisterShape(2, 1), (0,))
        with pytest.raises(ValueError):
            ket.amps[0] = 0.0


class TestTensor:
    def test_basis_kets(self):
        d2 = RegisterShape(2, 1)
        out = tensor(basis_ket(d2, (0,)), basis_ket(d2, (1,)))
        assert out.amplitude((0, 1)) == 1.0

    def test_superposition(self):
        d2 = RegisterShape(2, 1)
        plus = PureState(d2, np.array([1, 1]) / math.sqrt(2))
        out = tensor(plus, basis_ket(d2, (0,)))
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[2] = 1 / math.sqrt(2)
        np.testing.assert_allclose(out.amps, expected)

    def test_cat_with_chain_amplitude_pattern(self):
        cat = random_cat_state(3, 2, 3)
        joint = tensor(cat_to_pure_state(cat), uniform_superposition_chain(3, 3))
        for l in range(3):
            for i in range(3):
                expected = cat.coeffs[l] / math.sqrt(3)
                assert joint.amplitude((l, l, i, i, i)) == pytest.approx(expected)
        assert joint.norm() == pytest.approx(1.0, abs=1e-12)
        # everything off the doubly-repeated pattern vanishes
        assert np.count_nonzero(joint.amps) == 9

    def test_mismatched_dimension(self):
        with pytest.raises(ShapeMismatchError):
            tensor(basis_ket(RegisterShape(2, 1), (0,)), basis_ket(RegisterShape(3, 1), (0,)))

    def test_associative_exactly_on_dyadic_amplitudes(self):
        # amplitudes are powers of two, so every product is exact
        shape = RegisterShape(2, 1)
        a = PureState(shape, [0.5, complex(0, -0.5) * math.sqrt(2)], normalized=False)
        b = PureState(shape, [0.25, 0.75], normalized=False)
        c = PureState(shape, [1.0, -0.5], normalized=False)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.array_equal(left.amps, right.amps)

    def test_associative_up_to_rounding_on_random_states(self):
        rng = np.random.default_rng(11)

        def rand_state(n):
            z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            return PureState(RegisterShape(2, n), z / np.linalg.norm(z))

        a, b, c = rand_state(1), rand_state(2), rand_state(1)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        np.testing.assert_allclose(left.amps, right.amps, atol=1e-15, rtol=0)


class TestInner:
    def test_orthogonal_kets(self):
        shape = RegisterShape(2, 1)
        assert inner(basis_ket(shape, (0,)), basis_ket(shape, (1,))) == 0

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(5)
        shape = RegisterShape(3, 2)

        def rand():
            z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            return PureState(shape, z, normalized=False)

        a, b = rand(), rand()
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))
        assert inner(a, a).real == pytest.approx(a.norm() ** 2)
        assert abs(inner(a, a).imag) < 1e-12

    def test_recovers_amplitude_exactly(self):
        cat = random_cat_state(2, 3, 9)
        state = cat_to_pure_state(cat)
        shape = state.shape
        single = RegisterShape(2, 1)
        for digits in product(range(2), repeat=3):
            ket = basis_ket(single, digits[:1])
            for q in digits[1:]:
                ket = tensor(ket, basis_ket(single, (q,)))
            assert inner(ket, state) == state.amplitude(digits)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            inner(basis_ket(RegisterShape(2, 1), (0,)), basis_ket(RegisterShape(2, 2), (0, 0)))


class TestPartialTrace:
    def test_product_state(self):
        state = basis_ket(RegisterShape(2, 2), (0, 0))
        rho = partial_trace_keep(state, [1])
        np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_maximally_entangled_pair(self):
        shape = RegisterShape(2, 2)
        pair = PureState(shape, np.array([1, 0, 0, 1]) / math.sqrt(2))
        rho = partial_trace_keep(pair, [2])
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3)])
    def test_matches_brute_force_oracle(self, d, m):
        cat = random_cat_state(d, m, 21)
        joint = tensor(cat_to_pure_state(cat), uniform_superposition_chain(d, m + 1))
        keep = list(range(m + 2, 2 * m + 2))
        rho = partial_trace_keep(joint, keep)
        oracle = brute_force_partial_trace(joint, keep)
        np.testing.assert_allclose(rho.entries, oracle, atol=1e-13)

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_receiver_reduction_is_coefficient_independent(self, d, m):
        # the receiver's pre-measurement state never depends on the cat
        expected = np.zeros((d**m, d**m), dtype=complex)
        for i in range(d):
            idx = digits_to_index(RegisterShape(d, m), (i,) * m)
            expected[idx, idx] = 1 / d
        for seed in range(20):
            cat = random_cat_state(d, m, seed)
            joint = tensor(cat_to_pure_state(cat), uniform_superposition_chain(d, m + 1))
            rho = partial_trace_keep(joint, range(m + 2, 2 * m + 2))
            assert np.abs(rho.entries - expected).max() < 1e-12

    def test_trace_one_and_hermitian_for_random_states(self):
        rng = np.random.default_rng(3)
        shape = RegisterShape(3, 3)
        for _ in range(5):
            z = rng.standard_normal(27) + 1j * rng.standard_normal(27)
            state = PureState(shape, z / np.linalg.norm(z))
            rho = partial_trace_keep(state, [1, 3]).entries
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_bad_keep_sets(self):
        state = basis_ket(RegisterShape(2, 2), (0, 0))
        with pytest.raises(ValueError):
            partial_trace_keep(state, [])
        with pytest.raises(ValueError):
            partial_trace_keep(state, [0, 1])
        with pytest.raises(ValueError):
            partial_trace_keep(state, [3])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(RegisterShape(2, 1), [[1, 1], [0, 0]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(RegisterShape(2, 1), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(RegisterShape(2, 1), [[1.5, 0], [0, -0.5]])


class TestCatState:
    def test_expansion_d3(self):
        coeffs = np.array([0.6, 0.8j, 0.0])
        state = cat_to_pure_state(CatState(3, 2, coeffs))
        assert state.amplitude((0, 0)) == 0.6
        assert state.amplitude((1, 1)) == 0.8j
        assert state.amplitude((2, 2)) == 0.0
        assert state.amplitude((0, 1)) == 0.0

    def test_trivial_corner(self):
        state = cat_to_pure_state(CatState(4, 3, [1, 0, 0, 0]))
        assert state.amplitude((0, 0, 0)) == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_uniform_coefficients_give_ghz(self):
        state = cat_to_pure_state(CatState(2, 3, [1 / math.sqrt(2)] * 2))
        np.testing.assert_allclose(
            [state.amplitude((0, 0, 0)), state.amplitude((1, 1, 1))],
            [1 / math.sqrt(2)] * 2,
        )
        assert np.count_nonzero(state.amps) == 2

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            CatState(2, 1, [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 1.0)])
    def test_rejects_non_finite_coefficients(self, bad):
        # abs(nan - 1) > tol is False, so a norm check alone lets NaN through
        with pytest.raises(ValueError, match="finite"):
            CatState(2, 2, [1.0, bad])


class TestRandomCatState:
    def test_deterministic(self):
        a = random_cat_state(4, 2, 123)
        b = random_cat_state(4, 2, 123)
        assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("d,m,seed", [(2, 1, 0), (3, 2, 5), (7, 4, 99)])
    def test_normalized(self, d, m, seed):
        cat = random_cat_state(d, m, seed)
        assert abs(np.linalg.norm(cat.coeffs) - 1) < 1e-12

    def test_pinned_regression_value(self):
        golden = np.array(
            [
                0.10690532203522188 + 0.32998273015022084j,
                -0.3648625009098649 - 0.684490824449938j,
                0.26328431220219434 - 0.4568497428531755j,
            ]
        )
        np.testing.assert_array_equal(random_cat_state(3, 2, 42).coeffs, golden)


def one_cat_coeffs(d, seed):
    """The single-cat draw as first written: two ``standard_normal(d)`` calls
    on the seed's generator, then division by the norm."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


class TestRandomCatCoeffs:
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 16, 64])
    def test_rows_are_the_single_cat_draw_byte_for_byte(self, d):
        block = random_cat_coeffs(d, range(3000))
        assert block.shape == (3000, d) and block.dtype == np.complex128
        for seed, row in enumerate(block):
            assert row.tobytes() == one_cat_coeffs(d, seed).tobytes(), seed

    def test_one_seed(self):
        block = random_cat_coeffs(5, range(17, 18))
        assert block.shape == (1, 5)
        assert block[0].tobytes() == one_cat_coeffs(5, 17).tobytes()
        assert random_cat_state(5, 2, 17).coeffs.tobytes() == block[0].tobytes()

    def test_no_seeds(self):
        block = random_cat_coeffs(3, range(0))
        assert block.shape == (0, 3) and block.dtype == np.complex128
