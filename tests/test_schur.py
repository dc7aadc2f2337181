import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accdm.schur import (
    N_MAX,
    accessible_param_count,
    occurring_two_j,
    partitions,
    schur_basis,
    sector_rotation,
    su2_multiplicity,
    symmetric_dimension,
    weyl_dimension,
)

from conftest import haar_unitary, permutation_matrix


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def count_ssyt(shape, d):
    """Count semistandard Young tableaux of the given shape with entries 1..d.

    Brute-force fill: rows weakly increase left to right, columns strictly
    increase top to bottom.
    """
    shape = [s for s in shape if s > 0]
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]

    def fill(idx, tableau):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, tableau[(r, c - 1)])
        if r > 0:
            lo = max(lo, tableau[(r - 1, c)] + 1)
        total = 0
        for val in range(lo, d + 1):
            tableau[(r, c)] = val
            total += fill(idx + 1, tableau)
            del tableau[(r, c)]
        return total

    return fill(0, {})


# ---------------------------------------------------------------------------
# Multiplicities
# ---------------------------------------------------------------------------

def test_multiplicity_three_qubit_doublets():
    assert su2_multiplicity(3, 1) == 2


def test_multiplicity_four_qubit_triplets():
    assert su2_multiplicity(4, 2) == 3


@pytest.mark.parametrize("n", range(1, 9))
def test_top_sector_multiplicity_is_one(n):
    assert su2_multiplicity(n, n) == 1


def test_multiplicity_invalid_pairs_return_zero():
    assert su2_multiplicity(3, 2) == 0      # parity mismatch
    assert su2_multiplicity(3, 5) == 0      # j > n/2
    assert su2_multiplicity(3, -1) == 0


def test_multiplicity_rejects_zero_particles():
    with pytest.raises(ValueError):
        su2_multiplicity(0, 0)


@given(st.integers(min_value=1, max_value=12))
def test_decomposition_completeness(n):
    total = sum(su2_multiplicity(n, tj) * (tj + 1) for tj in occurring_two_j(n))
    assert total == 2 ** n


@given(st.integers(min_value=1, max_value=12))
def test_sum_of_squared_dimensions(n):
    total = sum((tj + 1) ** 2 for tj in occurring_two_j(n))
    assert total == math.comb(n + 3, 3)
    assert total == accessible_param_count(n, 2)


# ---------------------------------------------------------------------------
# Weyl dimensions and parameter counts
# ---------------------------------------------------------------------------

def test_weyl_symmetric_row_dimension():
    for n in range(1, 9):
        assert weyl_dimension((n, 0), 2) == n + 1


def test_weyl_singlet_is_one_dimensional():
    assert weyl_dimension((1, 1), 2) == 1


def test_weyl_adjoint_of_su3():
    assert weyl_dimension((2, 1, 0), 3) == 8
    assert count_ssyt((2, 1), 3) == 8


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weyl_matches_tableau_count(n, d):
    for lam in partitions(n, d):
        assert weyl_dimension(lam, d) == count_ssyt(lam, d)


def test_weyl_rejects_malformed_partitions():
    with pytest.raises(ValueError):
        weyl_dimension((1, 2), 2)
    with pytest.raises(ValueError):
        weyl_dimension((2, 1, 1), 2)
    with pytest.raises(ValueError):
        weyl_dimension((2, -1), 2)


def test_symmetric_dimension_examples():
    for n in range(1, 9):
        assert symmetric_dimension(n, 2) == n + 1
    for d in range(1, 6):
        assert symmetric_dimension(1, d) == d
    assert symmetric_dimension(3, 3) == 10
    assert symmetric_dimension(3, 3) == len(
        list(combinations_with_replacement(range(3), 3)))
    assert symmetric_dimension(5, 3) == weyl_dimension((5, 0, 0), 3)


def test_param_count_examples():
    assert accessible_param_count(3, 2) == 20
    for n in range(1, 6):
        assert accessible_param_count(n, 1) == 1
    assert accessible_param_count(2, 3) == 45
    assert (count_ssyt((2,), 3) ** 2 + count_ssyt((1, 1), 3) ** 2) == 45


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(1, 9))
def test_param_count_is_sum_of_squared_weyl_dimensions(n, d):
    by_sum = sum(weyl_dimension(lam, d) ** 2 for lam in partitions(n, d))
    assert by_sum == accessible_param_count(n, d)


def test_partition_enumeration_order():
    assert list(partitions(4, 2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions(3, 3)) == [(3,), (2, 1), (1, 1, 1)]


# ---------------------------------------------------------------------------
# Explicit basis
# ---------------------------------------------------------------------------

def test_single_qubit_basis_is_identity():
    basis = schur_basis(1)
    assert [(v.two_j, v.mu, v.two_m) for v in basis.vectors] == [(1, 1, 1), (1, 1, -1)]
    np.testing.assert_allclose(basis.matrix, np.eye(2), atol=1e-15)


def test_two_qubit_triplet_and_singlet():
    basis = schur_basis(2)
    s = 1 / np.sqrt(2)
    expected = {
        (2, 1, 2): [1, 0, 0, 0],
        (2, 1, 0): [0, s, s, 0],
        (2, 1, -2): [0, 0, 0, 1],
        (0, 1, 0): [0, s, -s, 0],
    }
    for v in basis.vectors:
        np.testing.assert_allclose(v.amplitudes, expected[(v.two_j, v.mu, v.two_m)],
                                   atol=1e-15)


def test_three_qubit_doublet_span_matches_reference_vectors():
    # The two mu copies at (j=1/2, m=+1/2) span the orthogonal complement of
    # the symmetric weight-1/2 vector; compare against the textbook pair
    # (|HHV>+|HVH>-2|VHH>)/sqrt(6) and (|HHV>-|HVH>)/sqrt(2).
    basis = schur_basis(3)
    ours = np.array([basis.vectors[basis.row_index(1, mu, 1)].amplitudes
                     for mu in (1, 2)])
    ref = np.zeros((2, 8), dtype=complex)
    idx = {"HHV": 0b001, "HVH": 0b010, "VHH": 0b100}
    ref[0, idx["HHV"]] = 1; ref[0, idx["HVH"]] = 1; ref[0, idx["VHH"]] = -2
    ref[0] /= np.sqrt(6)
    ref[1, idx["HHV"]] = 1; ref[1, idx["HVH"]] = -1
    ref[1] /= np.sqrt(2)
    # subspace equality: projectors agree
    p_ours = ours.conj().T @ ours
    p_ref = ref.conj().T @ ref
    np.testing.assert_allclose(p_ours, p_ref, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_unitarity(n):
    u = schur_basis(n).matrix
    err = np.abs(u @ u.conj().T - np.eye(2 ** n)).max()
    assert err < 1e-12


def test_basis_unitarity_at_cap():
    u = schur_basis(N_MAX).matrix
    err = np.abs(u @ u.conj().T - np.eye(2 ** N_MAX)).max()
    assert err < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_vectors_are_weight_eigenvectors(n):
    for v in schur_basis(n).vectors:
        for idx in np.nonzero(np.abs(v.amplitudes) > 1e-14)[0]:
            n_v = bin(idx).count("1")
            assert (n - n_v) - n_v == v.two_m


@pytest.mark.parametrize("n", range(2, 6))
def test_sector_projectors_commute_with_transpositions(n):
    basis = schur_basis(n)
    for two_j in occurring_two_j(n):
        rows = [r for mu in range(1, su2_multiplicity(n, two_j) + 1)
                for r in basis.sector_rows(two_j, mu)]
        q = basis.matrix[rows].conj().T @ basis.matrix[rows]
        for i in range(n - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            p = permutation_matrix(perm, n)
            assert np.abs(p @ q @ p.T - q).max() < 1e-12


def test_basis_ordering_convention():
    # j descending, then mu ascending, then m descending
    labels = [(v.two_j, v.mu, v.two_m) for v in schur_basis(3).vectors]
    assert labels == [
        (3, 1, 3), (3, 1, 1), (3, 1, -1), (3, 1, -3),
        (1, 1, 1), (1, 1, -1), (1, 2, 1), (1, 2, -1),
    ]


def test_sector_invariance_spot_check_at_cap():
    basis = schur_basis(N_MAX)
    two_j = N_MAX - 2
    rows = [r for mu in range(1, su2_multiplicity(N_MAX, two_j) + 1)
            for r in basis.sector_rows(two_j, mu)]
    q = basis.matrix[rows].conj().T @ basis.matrix[rows]
    perm = list(range(N_MAX))
    perm[0], perm[1] = perm[1], perm[0]
    p = permutation_matrix(perm, N_MAX)
    assert np.abs(p @ q @ p.T - q).max() < 1e-12


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_basis_has_one_copy_per_multiplicity(n):
    # the (j, mu) copies of each sector number su2_multiplicity, and each
    # has the 2j + 1 weights
    copies = {}
    for v in schur_basis(n).vectors:
        copies.setdefault(v.two_j, {}).setdefault(v.mu, []).append(v.two_m)
    assert sorted(copies) == sorted(occurring_two_j(n))
    for two_j, by_mu in copies.items():
        assert sorted(by_mu) == list(range(1, su2_multiplicity(n, two_j) + 1))
        for weights in by_mu.values():
            assert weights == list(range(two_j, -two_j - 1, -2))


def test_basis_rejects_out_of_range():
    with pytest.raises(ValueError):
        schur_basis(0)
    with pytest.raises(ValueError):
        schur_basis(N_MAX + 1)


# ---------------------------------------------------------------------------
# Sector rotations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_sector_rotation_matches_tensor_power(n):
    rng = np.random.default_rng(7)
    basis = schur_basis(n)
    for _ in range(4):
        u = haar_unitary(rng, 2)
        u_full = np.array([[1.0]])
        for _ in range(n):
            u_full = np.kron(u_full, u)
        for two_j in occurring_two_j(n):
            w = sector_rotation(u, n, two_j)
            for mu in range(1, su2_multiplicity(n, two_j) + 1):
                rows = basis.matrix[basis.sector_rows(two_j, mu)]
                w_from_basis = rows @ u_full @ rows.conj().T
                np.testing.assert_allclose(w_from_basis, w, atol=1e-12)

    # the same kernel on a stack, including non-unitary matrices
    stack = np.array([haar_unitary(rng, 2) for _ in range(3)]
                     + [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                        for _ in range(3)]).reshape(2, 3, 2, 2)
    for two_j in occurring_two_j(n):
        w_stack = sector_rotation(stack, n, two_j)
        assert w_stack.shape == (2, 3, two_j + 1, two_j + 1)
        rows = basis.matrix[basis.sector_rows(two_j, 1)]
        for idx in np.ndindex(2, 3):
            u_full = np.array([[1.0]])
            for _ in range(n):
                u_full = np.kron(u_full, stack[idx])
            np.testing.assert_allclose(w_stack[idx], rows @ u_full @ rows.conj().T,
                                       atol=1e-12 * np.abs(u_full).max())


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_sector_rotation_is_a_representation(n):
    # the dense-free partner of the tensor-power check, at every N:
    # R_j(ab) = R_j(a) R_j(b) and R_j(1) = 1, for non-unitary a and b
    rng = np.random.default_rng(1400 + n)
    a, b = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    for two_j in occurring_two_j(n):
        ra, rb, rab, one = sector_rotation(np.array([a, b, a @ b, np.eye(2)]), n, two_j)
        assert np.abs(rab - ra @ rb).max() <= 1e-12 * np.abs(rab).max()
        np.testing.assert_allclose(one, np.eye(two_j + 1), rtol=0, atol=1e-12)


def test_symmetric_power_is_unitary_for_unitary_input():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 5):
        u = haar_unitary(rng, 2)
        s = sector_rotation(u, k, k)
        np.testing.assert_allclose(s @ s.conj().T, np.eye(k + 1), atol=1e-12)


@pytest.mark.parametrize("rotation", [
    pytest.param(lambda u: sector_rotation(u, 3, 2), id="absent-sector"),
    pytest.param(lambda u: sector_rotation(u, 3, 1.0), id="float-two_j"),
    pytest.param(lambda u: sector_rotation(u, 0, 0), id="zero-n"),
    pytest.param(lambda u: sector_rotation(u, N_MAX + 2, N_MAX), id="n-above-cap"),
    pytest.param(lambda u: sector_rotation(u, -1, -1), id="negative-k"),
    pytest.param(lambda u: sector_rotation(u, 2.5, 2.5), id="fractional-k"),
    pytest.param(lambda u: sector_rotation(u, 0, 0), id="zero-k"),
    pytest.param(lambda u: sector_rotation(u, N_MAX + 1, N_MAX + 1), id="k-above-cap"),
])
def test_sector_rotation_rejects_absent_sector(rotation):
    with pytest.raises(ValueError):
        rotation(np.eye(2))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_weyl_two_row_equals_two_j_plus_one(n, data):
    tj = data.draw(st.sampled_from(occurring_two_j(n)))
    assert weyl_dimension(((n + tj) // 2, (n - tj) // 2), 2) == tj + 1


@pytest.mark.parametrize("check, message", [
    (lambda: occurring_two_j(0), "n must be >= 1"),
    (lambda: weyl_dimension((1,), 0), "d must be >= 1"),
    (lambda: symmetric_dimension(0, 2), "n and d must be >= 1"),
    (lambda: accessible_param_count(0, 2), "n and d must be >= 1"),
    (lambda: sector_rotation(np.eye(3), 2, 2), "u must be 2x2 or a stack of 2x2"),
], ids=["occurring-n", "weyl-d", "symmetric-n", "param-count-n",
        "rotation-shape"])
def test_input_checks_name_their_cause(check, message):
    with pytest.raises(ValueError, match=message):
        check()
