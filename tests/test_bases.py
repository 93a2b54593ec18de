import math
from itertools import product

import numpy as np
import pytest
from test_sector_oracle import ORACLE_GRID

from catport import (
    BasisFamily,
    BellLabel,
    ComplementLabel,
    GhzLabel,
    JointLabel,
    MeasurementBasis,
    PiLabel,
    PureState,
    RangeError,
    barred_bell_basis_state,
    bell_basis_state,
    build_basis,
    clock_operator,
    ghz_basis_state,
    inner,
    monomial_tensor,
    pi_basis_state,
    shift_operator,
    unit_phase,
    verify_orthonormal_complete,
)
from catport.bases import (
    block_ghz_basis_state,
    complement_indices,
    sector_terms,
)
from catport.protocols import MonomialOperator

W = np.exp(2j * np.pi / 3)  # primitive cube root of unity
S3 = math.sqrt(3)


def ket3(a, b):
    v = np.zeros(9, dtype=complex)
    v[a * 3 + b] = 1
    return v


# the nine two-qutrit Bell states, written out longhand
BELL3_GOLDEN = {
    (0, 0): (ket3(0, 0) + ket3(1, 1) + ket3(2, 2)) / S3,
    (1, 0): (ket3(0, 0) + W * ket3(1, 1) + W**2 * ket3(2, 2)) / S3,
    (2, 0): (ket3(0, 0) + W**2 * ket3(1, 1) + W * ket3(2, 2)) / S3,
    (0, 1): (ket3(0, 1) + ket3(1, 2) + ket3(2, 0)) / S3,
    (1, 1): (ket3(0, 1) + W * ket3(1, 2) + W**2 * ket3(2, 0)) / S3,
    (2, 1): (ket3(0, 1) + W**2 * ket3(1, 2) + W * ket3(2, 0)) / S3,
    (0, 2): (ket3(0, 2) + ket3(1, 0) + ket3(2, 1)) / S3,
    (1, 2): (ket3(0, 2) + W * ket3(1, 0) + W**2 * ket3(2, 1)) / S3,
    (2, 2): (ket3(0, 2) + W**2 * ket3(1, 0) + W * ket3(2, 1)) / S3,
}

PI3_GOLDEN = np.array(
    [
        [1, 1, 1],
        [1, W, W**2],
        [1, W**2, W],
    ]
) / S3


class TestBellStates:
    @pytest.mark.parametrize("n,m", list(BELL3_GOLDEN))
    def test_d3_golden(self, n, m):
        state = bell_basis_state(3, BellLabel(n, m))
        np.testing.assert_allclose(state.amps, BELL3_GOLDEN[(n, m)], atol=1e-15)

    def test_qubit_singlet(self):
        state = bell_basis_state(2, BellLabel(1, 1))
        np.testing.assert_allclose(
            state.amps, np.array([0, 1, -1, 0]) / math.sqrt(2), atol=1e-15
        )

    def test_unit_norm_and_orthogonality(self):
        a = bell_basis_state(3, BellLabel(0, 0))
        b = bell_basis_state(3, BellLabel(1, 0))
        assert inner(a, a) == pytest.approx(1.0, abs=1e-15)
        # sum of the three cube roots of unity vanishes
        assert abs(inner(a, b)) < 1e-15

    def test_label_out_of_range(self):
        with pytest.raises(RangeError):
            bell_basis_state(3, BellLabel(3, 0))
        with pytest.raises(RangeError):
            BellLabel(-1, 0)


class TestPiStates:
    def test_d3_matrix_golden(self):
        rows = np.stack([pi_basis_state(3, PiLabel(a)).amps for a in range(3)])
        np.testing.assert_allclose(rows, PI3_GOLDEN, atol=1e-15)

    def test_qubit_minus(self):
        state = pi_basis_state(2, PiLabel(1))
        np.testing.assert_allclose(
            state.amps, np.array([1, -1]) / math.sqrt(2), atol=1e-15
        )

    def test_label_out_of_range(self):
        with pytest.raises(RangeError):
            pi_basis_state(2, PiLabel(2))


class TestGhzStates:
    def test_all_zero_label_is_plain_chain(self):
        state = ghz_basis_state(3, GhzLabel(0, 0, 0))
        expected = np.zeros(27, dtype=complex)
        expected[[0, 13, 26]] = 1 / S3
        np.testing.assert_allclose(state.amps, expected, atol=1e-15)

    def test_phase_pattern(self):
        state = ghz_basis_state(3, GhzLabel(0, 1, 2))
        assert state.amplitude((0, 0, 1)) == pytest.approx(1 / S3)
        assert state.amplitude((1, 1, 2)) == pytest.approx(W**2 / S3)
        assert state.amplitude((2, 2, 0)) == pytest.approx(W / S3)

    def test_qubit_case(self):
        state = ghz_basis_state(2, GhzLabel(1, 0, 0))
        assert state.amplitude((0, 1, 0)) == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude((1, 0, 1)) == pytest.approx(-1 / math.sqrt(2))
        assert np.count_nonzero(state.amps) == 2


class TestBarredStates:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_single_copy_reduces_to_bell(self, d):
        for n, m in product(range(d), repeat=2):
            barred = barred_bell_basis_state(d, 1, BellLabel(n, m))
            plain = bell_basis_state(d, BellLabel(n, m))
            assert np.array_equal(barred.amps, plain.amps)

    def test_two_copies_d3(self):
        state = barred_bell_basis_state(3, 2, BellLabel(0, 0))
        expected = np.zeros(27, dtype=complex)
        expected[[0, 13, 26]] = 1 / S3
        np.testing.assert_allclose(state.amps, expected, atol=1e-15)

    def test_two_copies_d2_with_phases(self):
        state = barred_bell_basis_state(2, 2, BellLabel(1, 1))
        assert state.amplitude((0, 0, 1)) == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude((1, 1, 0)) == pytest.approx(-1 / math.sqrt(2))
        assert np.count_nonzero(state.amps) == 2

    def test_supported_only_on_repeated_digit_sector(self):
        for d, m in [(2, 3), (3, 2), (3, 3)]:
            for n, ms in product(range(d), repeat=2):
                state = barred_bell_basis_state(d, m, BellLabel(n, ms))
                digits_all = list(product(range(d), repeat=m + 1))
                for digits in digits_all:
                    block = digits[:m]
                    if len(set(block)) > 1:
                        assert state.amplitude(digits) == 0.0


class TestBuildBasis:
    def test_bell_family_matches_golden_list(self):
        basis = build_basis(BasisFamily.BELL, 3)
        assert [(l.n, l.m) for l in basis.labels()] == sorted(BELL3_GOLDEN)
        for label, state in basis.states:
            np.testing.assert_allclose(
                state.amps, BELL3_GOLDEN[(label.n, label.m)], atol=1e-15
            )

    def test_pi_and_ghz_cardinalities(self):
        assert len(build_basis(BasisFamily.PI, 4).states) == 4
        assert len(build_basis(BasisFamily.GHZ, 3).states) == 27

    def test_bell_joint_family_d2_m2(self):
        basis = build_basis(BasisFamily.BELL_PROTOCOL_JOINT, 2, 2)
        assert len(basis.states) == 8
        for label in basis.labels():
            assert isinstance(label, JointLabel)
            assert len(label.alphas) == 1
            assert isinstance(label.tail, BellLabel)
        # independent Gram check via pairwise inner products
        gram = np.array(
            [[inner(a, b) for _, b in basis.states] for _, a in basis.states]
        )
        assert np.abs(gram - np.eye(8)).max() < 1e-12

    def test_barred_family_d3_m2_structure(self):
        basis = build_basis(BasisFamily.BARRED, 3, 2)
        assert len(basis.states) == 27
        barred_members = [
            s for l, s in basis.states if isinstance(l, BellLabel)
        ]
        assert len(barred_members) == 9
        # the labeled members alone span only the 9-dim repeated-digit sector
        stack = np.stack([s.amps for s in barred_members])
        assert np.linalg.matrix_rank(stack) == 9
        report = verify_orthonormal_complete(basis)
        assert report.max_gram_error < 1e-12
        assert report.max_completeness_error < 1e-12

    def test_barred_complement_members_are_off_sector_kets(self):
        basis = build_basis(BasisFamily.BARRED, 2, 3)
        sector = {(j, j, j, b) for j in range(2) for b in range(2)}
        complements = [
            (l, s) for l, s in basis.states if isinstance(l, ComplementLabel)
        ]
        assert len(complements) == 16 - 4
        for label, state in complements:
            assert label.digits not in sector
            assert np.count_nonzero(state.amps) == 1
            assert state.amplitude(label.digits) == 1.0

    def test_ghz_joint_m3_has_complement(self):
        basis = build_basis(BasisFamily.GHZ_PROTOCOL_JOINT, 2, 3)
        ghz_members = [l for l in basis.labels() if isinstance(l, GhzLabel)]
        comp_members = [l for l in basis.labels() if isinstance(l, ComplementLabel)]
        assert len(ghz_members) == 8
        assert len(comp_members) == 8
        report = verify_orthonormal_complete(basis)
        assert report.max_gram_error < 1e-12

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            build_basis(BasisFamily.BELL, 3, 2)  # no particle count here
        with pytest.raises(ValueError):
            build_basis(BasisFamily.BARRED, 3)  # particle count required
        with pytest.raises(ValueError):
            build_basis(BasisFamily.GHZ_PROTOCOL_JOINT, 3, 1)

    def test_cardinality_enforced(self):
        basis = build_basis(BasisFamily.BELL, 2)
        with pytest.raises(ValueError):
            MeasurementBasis(basis.shape, basis.states[:-1])


class TestVerifyOrthonormalComplete:
    FAMILIES = [
        (BasisFamily.BELL, None),
        (BasisFamily.PI, None),
        (BasisFamily.GHZ, None),
        (BasisFamily.BELL_PROTOCOL_JOINT, 2),
        (BasisFamily.BELL_PROTOCOL_JOINT, 3),
        (BasisFamily.GHZ_PROTOCOL_JOINT, 2),
        (BasisFamily.GHZ_PROTOCOL_JOINT, 3),
        (BasisFamily.BARRED, 2),
        (BasisFamily.BARRED, 3),
    ]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("family,m", FAMILIES)
    def test_every_family_certifies(self, d, family, m):
        report = verify_orthonormal_complete(build_basis(family, d, m))
        assert report.max_gram_error < 1e-12
        assert report.max_completeness_error < 1e-12

    def test_corrupted_basis_is_detected(self):
        basis = build_basis(BasisFamily.BELL, 3)
        states = list(basis.states)
        label, state = states[0]
        states[0] = (
            label,
            PureState(state.shape, state.amps * 1.01, normalized=False),
        )
        report = verify_orthonormal_complete(
            MeasurementBasis(basis.shape, tuple(states))
        )
        assert report.max_gram_error == pytest.approx(1.01**2 - 1, abs=1e-9)


class TestStructuralIdentities:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bell_from_clock_and_shift(self, d):
        # |bell(n,m)> = (Z^n x I)(I x X^m)|bell(0,0)>
        base = bell_basis_state(d, BellLabel(0, 0))
        eye = MonomialOperator.identity(d, 1)
        for n, m in product(range(d), repeat=2):
            op = monomial_tensor(clock_operator(d, n), eye) @ monomial_tensor(
                eye, shift_operator(d, m)
            )
            moved = op.apply(base)
            expected = bell_basis_state(d, BellLabel(n, m))
            np.testing.assert_allclose(moved.amps, expected.amps, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_ghz_n0_span_equals_barred_two_copy_span(self, d):
        for m in range(d):
            ghz_stack = np.stack(
                [ghz_basis_state(d, GhzLabel(0, m, k)).amps for k in range(d)]
            )
            barred_stack = np.stack(
                [
                    barred_bell_basis_state(d, 2, BellLabel(k, m)).amps
                    for k in range(d)
                ]
            )
            proj_ghz = ghz_stack.T @ ghz_stack.conj()
            proj_barred = barred_stack.T @ barred_stack.conj()
            assert np.abs(proj_ghz - proj_barred).max() < 1e-12


class TestLabelOrdering:
    def test_joint_labels_sort_by_block_then_fourier(self):
        basis = build_basis(BasisFamily.BELL_PROTOCOL_JOINT, 2, 3)
        keys = [label.sort_key() for label in basis.labels()]
        assert keys == sorted(keys)

    def test_complement_labels_sort_last(self):
        basis = build_basis(BasisFamily.BARRED, 2, 2)
        kinds = [isinstance(l, ComplementLabel) for l in basis.labels()]
        assert kinds == sorted(kinds)

    def test_label_strings(self):
        assert str(BellLabel(1, 2)) == "bell(1,2)"
        assert str(JointLabel((0, 1), BellLabel(1, 0))) == "pi(0)*pi(1)*bell(1,0)"
        assert str(ComplementLabel((0, 1, 0))) == "ket(0,1,0)"


def reference_term_state(d, num_qudits, terms):
    """The dense builder before the term tables: amplitude
    unit_phase(e, d) / sqrt(d) on each digit string of the ``(digits, e)``
    pairs in ``terms``, indexed digit by digit."""
    amps = np.zeros(d ** num_qudits, dtype=np.complex128)
    for digits, exponent in terms:
        index = 0
        for q in digits:
            index = index * d + q
        amps[index] = unit_phase(exponent, d) / math.sqrt(d)
    return amps


def reference_terms(d, block, components):
    """The ``(digits, e)`` terms of one label's components, written out."""
    if len(components) == 1:
        (alpha,) = components
        return [((beta,), alpha * beta) for beta in range(d)]
    if len(components) == 2:
        n, s = components
        return [((j,) * block + ((j + s) % d,), j * n) for j in range(d)]
    n, s, k = components
    return [((j,) + ((j + n) % d,) * (block - 1) + ((j + s) % d,), j * (n + k)) for j in range(d)]


def densified(d, block, labels):
    """Each row of ``sector_terms`` scattered into a zero vector."""
    kets, amplitudes = sector_terms(d, block, labels)
    amps = np.zeros((len(labels), d ** (block + 1)), dtype=np.complex128)
    np.put_along_axis(amps, kets, amplitudes, axis=1)
    return amps


# (d, block, width) at the oracle grid's block sizes: Fourier (block 0),
# barred Bell at blocks 1 and m, block GHZ at blocks 2 and m.
TERM_POINTS = sorted(
    {(d, 0, 1) for d, _ in ORACLE_GRID}
    | {(d, block, 2) for d, m in ORACLE_GRID for block in (1, m)}
    | {(d, block, 3) for d, m in ORACLE_GRID for block in (2, m)}
)


class TestSectorTerms:
    """The term tables against the dense builder they replaced, bit for bit."""

    @pytest.mark.parametrize("d, block, width", TERM_POINTS)
    def test_densified_terms_match_the_reference_loop(self, d, block, width):
        labels = list(product(range(d), repeat=width))
        reference = np.array(
            [reference_term_state(d, block + 1, reference_terms(d, block, c)) for c in labels]
        )
        assert densified(d, block, labels).tobytes() == reference.tobytes()
        build = {1: lambda c: pi_basis_state(d, PiLabel(*c)),
                 2: lambda c: barred_bell_basis_state(d, block, BellLabel(*c)),
                 3: lambda c: block_ghz_basis_state(d, block, GhzLabel(*c))}[width]
        built = np.array([build(c).amps for c in labels])
        assert built.tobytes() == reference.tobytes()

    def test_amplitudes_are_the_scalar_phase_table(self):
        # numpy's array exp and complex division differ in bits from the
        # scalar ones at some d; the table must carry the scalar bits.
        for d in range(2, 60):
            _, amplitudes = sector_terms(d, 0, [[1]])
            scalar = [unit_phase(beta, d) / math.sqrt(d) for beta in range(d)]
            assert amplitudes[0].tobytes() == np.array(scalar).tobytes(), d

    @pytest.mark.parametrize(
        "d, num_qudits",
        [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (5, 3), (2, 5), (3, 4), (4, 4), (2, 7), (3, 6)],
    )
    def test_complement_indices_match_the_product_filter(self, d, num_qudits):
        blocks = [slice(0, num_qudits - 1), slice(1, num_qudits - 1), slice(0, num_qudits),
                  slice(1, None), slice(0, 0), slice(None, None, 2), slice(None, None, -1)]
        for block in blocks:
            digit_strings = list(product(range(d), repeat=num_qudits))
            expected = [i for i, q in enumerate(digit_strings) if len(set(q[block])) > 1]
            assert complement_indices(d, num_qudits, block).tolist() == expected, block
