import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvcluster as cv
from cvcluster import engine, phase_space
from conftest import (
    blockwise_J,
    condition_on_functional_oracle,
    heisenberg_oracle,
    random_gaussian_state,
)
from explicit_states import displace
from state_oracles import purity

TEN_DB_R = math.log(10.0) / 2.0  # e^{-2r} = 0.1


class TestStateConstructors:
    def test_vacuum_single_mode(self):
        state = cv.vacuum_state(1)
        assert np.array_equal(state.mean, [0.0, 0.0])
        assert np.array_equal(state.cov, 0.25 * np.eye(2))

    def test_vacuum_two_modes(self):
        assert np.array_equal(cv.vacuum_state(2).cov, 0.25 * np.eye(4))

    def test_vacuum_is_pure(self):
        assert purity(cv.vacuum_state(1)) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            cv.vacuum_state(0)

    def test_squeezed_r_zero_is_vacuum(self):
        state = cv.squeezed_vacuum(0.0, axis="p")
        assert np.array_equal(state.cov, 0.25 * np.eye(2))

    def test_squeezed_ten_db(self):
        # e^{-2r} = 0.1 squeezes p to 0.025 and antisqueezes x to 2.5
        state = cv.squeezed_vacuum(TEN_DB_R, axis="p")
        assert state.cov[0, 0] == pytest.approx(math.exp(2 * TEN_DB_R) / 4, rel=1e-12)
        assert state.cov[1, 1] == pytest.approx(0.025, rel=1e-12)
        assert purity(state) == pytest.approx(1.0, abs=1e-9)

    def test_squeezed_x_axis(self):
        state = cv.squeezed_vacuum(1.0, axis="x")
        assert state.cov[0, 0] == pytest.approx(math.exp(-2.0) / 4, rel=1e-12)

    def test_squeezed_rejects_negative_r(self):
        with pytest.raises(ValueError):
            cv.squeezed_vacuum(-0.5, axis="p")

    def test_coherent_zero_is_vacuum(self):
        state = cv.coherent_state(0.0, 0.0)
        assert np.array_equal(state.mean, [0.0, 0.0])
        assert np.array_equal(state.cov, 0.25 * np.eye(2))

    def test_coherent_real_unit(self):
        assert np.array_equal(cv.coherent_state(1.0, 0.0).mean, [1.0, 0.0])

    def test_coherent_imaginary_unit(self):
        assert np.array_equal(cv.coherent_state(0.0, 1.0).mean, [0.0, 1.0])

    def test_tensor_of_vacua(self):
        joined = cv.tensor(cv.vacuum_state(1), cv.vacuum_state(1))
        assert np.array_equal(joined.cov, cv.vacuum_state(2).cov)

    def test_tensor_block_structure(self):
        joined = cv.tensor(cv.squeezed_vacuum(1.0, "p"), cv.vacuum_state(1))
        assert joined.cov[0, 0] == pytest.approx(math.exp(2.0) / 4)
        assert np.array_equal(joined.cov[:2, 2:], np.zeros((2, 2)))

    def test_tensor_then_gate_equals_gate_then_tensor(self):
        a, b = cv.coherent_state(0.5, -0.2), cv.squeezed_vacuum(0.7, "x")
        g = cv.shear(0.9)
        left = cv.apply_gate(cv.tensor(a, b), g, [1])
        right = cv.tensor(a, cv.apply_gate(b, g, [0]))
        np.testing.assert_allclose(left.cov, right.cov, atol=1e-14)
        np.testing.assert_allclose(left.mean, right.mean, atol=1e-14)

    def test_state_rejects_asymmetric_cov(self):
        cov = np.array([[0.25, 0.1], [0.0, 0.25]])
        with pytest.raises(ValueError):
            cv.GaussianState(np.zeros(2), cov)

    @pytest.mark.parametrize("asymmetry, refused", [(1e-11, True), (1e-13, False)])
    def test_state_symmetry_tolerance(self, asymmetry, refused):
        cov = 0.25 * np.eye(4)
        cov[1, 2] += asymmetry
        if refused:
            with pytest.raises(ValueError, match="not symmetric"):
                cv.GaussianState(np.zeros(4), cov)
        else:
            assert np.array_equal(cv.GaussianState(np.zeros(4), cov).cov, cov)

    def test_state_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cv.GaussianState(np.zeros(2), 0.25 * np.eye(4))


class TestGaussianStateContract:
    @pytest.mark.parametrize(
        "mean, cov, message",
        [
            (np.zeros(3), np.eye(3), "mean must have even length, got shape (3,)"),
            (np.zeros((2, 2)), np.eye(4), "mean must have even length, got shape (2, 2)"),
            (np.zeros(2), np.array(0.25), "cov shape () inconsistent with mean length 2"),
            (np.zeros(2), np.full(2, 0.25), "cov shape (1, 2) inconsistent with mean length 2"),
            (np.zeros(2), [[0.25, 0.1], [0.0, 0.25]], "covariance matrix is not symmetric"),
        ],
    )
    def test_refusal_texts(self, mean, cov, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cv.GaussianState(mean, cov)

    @pytest.mark.parametrize(
        "kind",
        [list, lambda v: np.array(v, dtype=np.int64), lambda v: np.array(v, dtype=float)],
        ids=["list", "int_array", "float_array"],
    )
    def test_fields_are_read_only_float_copies(self, kind):
        mean, cov = kind([1, -2]), kind([[3, 1], [1, 2]])
        state = cv.GaussianState(mean, cov)
        for field, given_value in ((state.mean, mean), (state.cov, cov)):
            assert type(field) is np.ndarray and field.dtype == np.float64
            assert not field.flags.writeable
            assert not np.shares_memory(field, np.asarray(given_value))
        mean[0], cov[0][0] = 7, 7
        assert state.mean.tolist() == [1.0, -2.0]
        assert state.cov.tolist() == [[3.0, 1.0], [1.0, 2.0]]

    def test_a_nan_entry_is_accepted(self):
        # NaN > tolerance is False, so the symmetry check lets a NaN entry through
        state = cv.GaussianState([math.nan, 0.0], [[math.nan, 0.0], [0.0, 0.25]])
        assert math.isnan(state.mean[0]) and math.isnan(state.cov[0, 0])


class TestStateEquality:
    def test_distinct_equal_states_compare_equal(self):
        a, b = cv.coherent_state(0.1, 0.2), cv.coherent_state(0.1, 0.2)
        assert a is not b
        assert a == b and not a != b

    @pytest.mark.parametrize(
        "other",
        [
            cv.coherent_state(0.1, 0.3),
            cv.GaussianState([0.1, 0.2], [[0.25, 0.0], [0.0, 0.5]]),
            cv.tensor(cv.coherent_state(0.1, 0.2), cv.vacuum_state(1)),
        ],
        ids=["mean", "cov", "modes"],
    )
    def test_a_different_field_compares_unequal(self, other):
        state = cv.coherent_state(0.1, 0.2)
        assert state != other and not state == other

    @pytest.mark.parametrize("other", [None, 0, (np.array([0.1, 0.2]), 0.25 * np.eye(2)), "state"])
    def test_a_non_state_compares_unequal(self, other):
        state = cv.coherent_state(0.1, 0.2)
        assert state != other and not state == other

    def test_stays_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(cv.coherent_state(0.1, 0.2))


# H = q^T G q for each gate constructor, in interleaved (x1, p1, x2, p2) order
def _coupling(i, j, value, size):
    G = np.zeros((size, size))
    G[i, j] += value / 2
    G[j, i] += value / 2
    return G


GATE_GENERATORS = [
    ("controlled_z", cv.controlled_z(), _coupling(0, 2, 2.0, 4)),
    ("controlled_z_pp", cv.controlled_z_pp(), _coupling(1, 3, 2.0, 4)),
    ("fourier", cv.fourier(), (math.pi / 2) * np.eye(2)),
    ("rotation", cv.rotation(0.37), 0.37 * np.eye(2)),
    ("shear", cv.shear(0.8), np.diag([0.8, 0.0])),
    ("p_shear", cv.p_shear(0.8), np.diag([0.0, 0.8])),
    ("squeezer", cv.squeezer(0.6), _coupling(0, 1, 2 * 0.6, 2)),
]


class TestGateConstructors:
    @pytest.mark.parametrize("name,gate,G", GATE_GENERATORS, ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_commutator_oracle(self, name, gate, G):
        np.testing.assert_allclose(gate, heisenberg_oracle(G), atol=1e-12)

    @pytest.mark.parametrize(
        "gate, n_modes",
        [
            (cv.controlled_z(), 2),
            (cv.controlled_z_pp(), 2),
            (cv.fourier(), 1),
            (cv.rotation(0.3), 1),
            (cv.shear(0.3), 1),
            (cv.p_shear(0.3), 1),
            (cv.squeezer(0.3), 1),
            (cv.beamsplitter_5050(), 2),
        ],
        ids=["CZ", "CZ_pp", "F", "R", "D", "Dp", "S", "BS50"],
    )
    def test_is_a_read_only_float_matrix(self, gate, n_modes):
        assert isinstance(gate, np.ndarray)
        assert gate.dtype == np.float64 and gate.shape == (2 * n_modes, 2 * n_modes)
        with pytest.raises(ValueError, match="read-only"):
            gate[0, 0] = 2.0

    def test_cz_p1_row(self):
        assert np.array_equal(cv.controlled_z()[1], [0.0, 1.0, 1.0, 0.0])

    def test_cz_pp_x1_row(self):
        assert np.array_equal(cv.controlled_z_pp()[0], [1.0, 0.0, 0.0, -1.0])

    @pytest.mark.parametrize(
        "gate",
        [
            cv.controlled_z(),
            cv.controlled_z_pp(),
            cv.fourier(),
            cv.rotation(1.1),
            cv.shear(-0.4),
            cv.p_shear(2.3),
            cv.squeezer(0.9),
            cv.beamsplitter_5050(),
        ],
        ids=["CZ", "CZ_pp", "F", "R(1.1)", "D(-0.4)", "Dp(2.3)", "S(0.9)", "BS50"],
    )
    def test_symplectic_condition(self, gate):
        assert cv.symplectic_defect(gate) <= 1e-12

    @given(st.floats(-3.0, 3.0))
    def test_symplectic_condition_parametrized(self, value):
        for gate in (cv.rotation(value), cv.shear(value), cv.p_shear(value), cv.squeezer(value)):
            assert cv.symplectic_defect(gate) <= 1e-12

    def test_fourier_period_four(self):
        S = cv.fourier()
        assert np.array_equal(np.linalg.matrix_power(S, 4), np.eye(2))
        assert np.array_equal(np.linalg.matrix_power(S, 2), -np.eye(2))

    def test_fourier_sends_x_displacement_to_p(self):
        out = cv.apply_gate(cv.coherent_state(1.0, 0.0), cv.fourier(), [0])
        np.testing.assert_allclose(out.mean, [0.0, 1.0], atol=1e-15)

    def test_rotation_half_pi_is_fourier(self):
        np.testing.assert_allclose(cv.rotation(math.pi / 2), cv.fourier(), atol=1e-15)

    def test_rotation_zero_is_identity(self):
        assert np.array_equal(cv.rotation(0.0), np.eye(2))

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_rotation_group_addition(self, a, b):
        np.testing.assert_allclose(
            cv.rotation(a) @ cv.rotation(b), cv.rotation(a + b), atol=1e-12
        )

    def test_shear_zero_is_identity(self):
        assert np.array_equal(cv.shear(0.0), np.eye(2))

    def test_shear_mean_map(self):
        out = cv.apply_gate(cv.coherent_state(1.0, 0.5), cv.shear(0.3), [0])
        np.testing.assert_allclose(out.mean, [1.0, 0.5 + 0.3], atol=1e-15)

    @given(st.floats(-2, 2), st.floats(-2, 2))
    def test_shear_group_addition(self, a, b):
        np.testing.assert_allclose(
            cv.shear(a) @ cv.shear(b), cv.shear(a + b), atol=1e-15
        )

    def test_p_shear_via_fourier_conjugation(self):
        F = cv.fourier()
        np.testing.assert_allclose(
            F @ cv.shear(0.45) @ np.linalg.inv(F), cv.p_shear(0.45), atol=1e-15
        )

    def test_squeezer_zero_is_identity(self):
        assert np.array_equal(cv.squeezer(0.0), np.eye(2))

    def test_squeezer_mean_map_and_det(self):
        gate = cv.squeezer(0.8)
        out = cv.apply_gate(cv.coherent_state(1.0, 1.0), gate, [0])
        np.testing.assert_allclose(out.mean, [math.exp(-0.8), math.exp(0.8)], atol=1e-14)
        assert np.linalg.det(gate) == pytest.approx(1.0, abs=1e-14)

    def test_cz_pp_is_fourier_conjugated_cz(self):
        F2 = np.zeros((4, 4))
        F2[:2, :2] = cv.fourier()
        F2[2:, 2:] = cv.fourier()
        conj = F2 @ cv.controlled_z() @ np.linalg.inv(F2)
        np.testing.assert_allclose(conj, cv.controlled_z_pp(), atol=1e-15)

    def test_cz_commutes_with_shear_on_either_mode(self):
        cz = cv.controlled_z()
        for mode in (0, 1):
            emb = cv.embed_symplectic(cv.shear(0.6), [mode], 2)
            assert np.array_equal(cz @ emb, emb @ cz)

    def test_beamsplitter_squared_is_signless_permutation(self):
        S = cv.beamsplitter_5050()
        S2 = S @ S
        assert set(np.round(S2.ravel(), 12)) <= {0.0, 1.0, -1.0}

    def test_beamsplitter_epr_correlations(self):
        r = 0.8
        state = cv.apply_gate(
            cv.tensor(cv.squeezed_vacuum(r, "p"), cv.squeezed_vacuum(r, "x")),
            cv.beamsplitter_5050(),
            [0, 1],
        )
        c = np.array([1.0, 0.0, -1.0, 0.0])
        var = c @ state.cov @ c
        assert var == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)


def _embed_by_index_grid(S, modes, n_modes):
    """The index-array and ``np.ix_`` embedding, kept as the reference for
    ``embed_symplectic``'s block slices."""
    idx = np.array([[2 * m, 2 * m + 1] for m in modes]).ravel()
    full = np.eye(2 * n_modes)
    full[np.ix_(idx, idx)] = S
    return full


class TestEmbedSymplectic:
    @pytest.mark.parametrize("k, n_modes", [(k, n) for k in (1, 2) for n in range(k, 6)])
    def test_equals_index_grid_in_every_mode_order(self, k, n_modes):
        S = np.random.Generator(np.random.PCG64(10 * n_modes + k)).normal(size=(2 * k, 2 * k))
        for modes in itertools.permutations(range(n_modes), k):
            expected = _embed_by_index_grid(S, modes, n_modes)
            assert np.array_equal(cv.embed_symplectic(S, list(modes), n_modes), expected)

    @pytest.mark.parametrize(
        "S, modes, message",
        [
            (np.eye(3), [0], r"shape \(2k, 2k\)"),
            (np.ones((2, 4)), [0], r"shape \(2k, 2k\)"),
            (np.eye(4), [0], "acts on 2 modes but 1 given"),
            (np.eye(4), [1, 1], "repeated mode"),
            (np.eye(2), [2], "out of range"),
            (np.eye(2), [-1], "out of range"),
            (np.array(2.0), [0], r"shape \(2k, 2k\)"),
        ],
    )
    def test_refusals(self, S, modes, message):
        with pytest.raises(ValueError, match=message):
            cv.embed_symplectic(S, modes, 2)

    def test_accepts_a_nested_list(self):
        S = [[1.0, 0.0], [0.4, 1.0]]
        assert np.array_equal(cv.embed_symplectic(S, [1], 2), _embed_by_index_grid(S, [1], 2))


class TestApplyAndDisplace:
    def test_apply_identity_gate(self):
        state = random_gaussian_state(3, 2)
        out = cv.apply_gate(state, np.eye(2), [1])
        np.testing.assert_allclose(out.mean, state.mean, atol=1e-15)
        np.testing.assert_allclose(out.cov, state.cov, atol=1e-15)

    def test_cz_on_two_mode_vacuum(self):
        out = cv.apply_gate(cv.vacuum_state(2), cv.controlled_z(), [0, 1])
        expected = 0.25 * np.array(
            [[1, 0, 0, 1], [0, 2, 1, 0], [0, 1, 1, 0], [1, 0, 0, 2]], dtype=float
        )
        np.testing.assert_allclose(out.cov, expected, atol=1e-15)

    def test_apply_with_permuted_modes(self):
        state = random_gaussian_state(11, 2, displaced=True)
        swapped = cv.apply_gate(state, cv.controlled_z_pp(), [1, 0])
        perm = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], float)
        S_perm = perm.T @ cv.controlled_z_pp() @ perm
        np.testing.assert_allclose(swapped.cov, S_perm @ state.cov @ S_perm.T, atol=1e-12)

    def test_apply_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            cv.apply_gate(cv.vacuum_state(2), cv.controlled_z(), [0])

    def test_apply_rejects_repeated_mode(self):
        with pytest.raises(ValueError):
            cv.apply_gate(cv.vacuum_state(2), cv.controlled_z(), [0, 0])

    def test_displace_examples(self):
        out = displace(cv.vacuum_state(1), 0, 1.0, 0.0)
        assert np.array_equal(out.mean, [1.0, 0.0])
        same = displace(out, 0, 0.0, 0.0)
        assert np.array_equal(same.mean, out.mean)
        twice = displace(displace(cv.vacuum_state(1), 0, 0.3, -0.4), 0, 0.7, 0.4)
        np.testing.assert_allclose(twice.mean, [1.0, 0.0], atol=1e-15)

    def test_displace_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            displace(cv.vacuum_state(1), 1, 0.0, 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_apply_preserves_symmetry_and_uncertainty(self, seed, n_modes):
        state = random_gaussian_state(seed, n_modes)
        assert np.max(np.abs(state.cov - state.cov.T)) <= 1e-12
        assert cv.uncertainty_defect(state) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gates_preserve_purity(self, seed):
        state = random_gaussian_state(seed, 2, displaced=False)
        assert purity(state) == pytest.approx(1.0, abs=1e-9)


class TestSymplecticForm:
    @pytest.mark.parametrize("n_modes", range(0, 9))
    def test_equals_the_block_loop_bitwise(self, n_modes):
        J, expected = cv.symplectic_form(n_modes), blockwise_J(n_modes)
        assert J.dtype == expected.dtype and J.shape == expected.shape
        assert J.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_modes", range(1, 6))
    def test_uncertainty_defect_equals_the_complex_cast_route(self, n_modes):
        for seed in range(10):
            state = random_gaussian_state(100 * n_modes + seed, n_modes)
            J = cv.symplectic_form(n_modes)
            eig = np.linalg.eigvalsh(state.cov.astype(complex) + 0.25j * J)
            expected = max(0.0, -float(eig[0].real)) / max(1.0, float(eig[-1].real))
            assert cv.uncertainty_defect(state) == expected


def _update_then_drop(state, mode, c_x, c_p, outcome):
    """Condition every quadrature on c_x x + c_p p of ``mode``, then drop the
    mode: the route ``homodyne`` took before it conditioned only the kept
    block, kept as its bitwise reference. Returns (mean, cov)."""
    i, j = 2 * mode, 2 * mode + 1
    c = np.zeros(2 * state.n_modes)
    c[i], c[j] = c_x, c_p
    mu_c = float(c @ state.mean)
    var = float(c @ state.cov @ c)
    if var / (c_x * c_x + c_p * c_p) <= 1e-12:
        mean, cov = state.mean.copy(), state.cov.copy()
    else:
        gain = state.cov @ c / var
        mean = state.mean + gain * (outcome - mu_c)
        cov = state.cov - np.outer(gain, c @ state.cov)
    keep = [k for k in range(2 * state.n_modes) if k not in (i, j)]
    cov_rem = cov[keep][:, keep]
    return mean[keep], 0.5 * (cov_rem + cov_rem.T)


def _assert_same_bits(state, mean, cov):
    assert state.mean.shape == mean.shape and state.cov.shape == cov.shape
    assert state.mean.tobytes() == mean.tobytes()
    assert state.cov.tobytes() == cov.tobytes()


class TestHomodyne:
    def test_product_state_unaffected(self):
        outcome, rest = cv.homodyne(cv.vacuum_state(2), 0, 1.0, 0.0, forced=0.3)
        assert outcome == 0.3
        np.testing.assert_allclose(rest.cov, 0.25 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(rest.mean, [0.0, 0.0], atol=1e-15)

    def test_cz_entangled_state_conditions_back_to_vacuum(self):
        state = cv.apply_gate(cv.vacuum_state(2), cv.controlled_z(), [0, 1])
        _, rest = cv.homodyne(state, 0, 1.0, 0.0, forced=0.0)
        np.testing.assert_allclose(rest.cov, 0.25 * np.eye(2), atol=1e-14)

    def test_conditional_covariance_outcome_independent(self):
        state = random_gaussian_state(5, 3)
        quad = (1, 0.6, -0.8)
        _, rest0 = cv.homodyne(state, *quad, forced=0.0)
        _, rest7 = cv.homodyne(state, *quad, forced=7.0)
        np.testing.assert_allclose(rest0.cov, rest7.cov, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_matches_conditioning_oracle(self, seed, n_modes):
        state = random_gaussian_state(seed, n_modes)
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        mode = int(rng.integers(n_modes))
        angle = float(rng.uniform(0, 2 * math.pi))
        quad = (mode, math.cos(angle), math.sin(angle))
        outcome = float(rng.normal())
        _, rest = cv.homodyne(state, *quad, forced=outcome)
        _, expected = condition_on_functional_oracle(state, *quad, outcome)
        np.testing.assert_allclose(rest.mean, expected.mean, atol=1e-10)
        np.testing.assert_allclose(rest.cov, expected.cov, atol=1e-10)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_matches_conditioning_oracle_on_exact_axes(self, n_modes):
        # exact axes make c_x or c_p an exact zero in both routes
        rng = np.random.Generator(np.random.PCG64(40 + n_modes))
        for c_x, c_p in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
            for _ in range(6):
                state = random_gaussian_state(int(rng.integers(2**31)), n_modes)
                quad = (int(rng.integers(n_modes)), c_x, c_p)
                outcome = float(rng.normal())
                _, rest = cv.homodyne(state, *quad, forced=outcome)
                _, expected = condition_on_functional_oracle(state, *quad, outcome)
                np.testing.assert_allclose(rest.mean, expected.mean, rtol=0, atol=1e-10)
                np.testing.assert_allclose(rest.cov, expected.cov, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("scale", [-3.0, 1e-3, 1e3])
    def test_conditioning_oracle_is_invariant_under_scaling_the_functional(self, scale):
        # c -> scale c with outcome -> scale outcome is the same measurement;
        # the oracle's 1/|c| must take the scale out
        rng = np.random.Generator(np.random.PCG64(17))
        for n_modes in (2, 3, 4):
            state = random_gaussian_state(int(rng.integers(2**31)), n_modes)
            mode = int(rng.integers(n_modes))
            angle = float(rng.uniform(0, 2 * math.pi))
            c_x, c_p, outcome = math.cos(angle), math.sin(angle), float(rng.normal())
            _, unit = condition_on_functional_oracle(state, mode, c_x, c_p, outcome)
            _, scaled = condition_on_functional_oracle(
                state, mode, scale * c_x, scale * c_p, scale * outcome
            )
            np.testing.assert_allclose(scaled.mean, unit.mean, rtol=0, atol=1e-10)
            np.testing.assert_allclose(scaled.cov, unit.cov, rtol=0, atol=1e-10)

    def test_requires_outcome_source(self):
        with pytest.raises(TypeError, match="missing 1 required keyword-only argument: 'forced'"):
            cv.homodyne(cv.vacuum_state(1), 0, 1.0, 0.0)

    def test_engine_draws_through_the_same_seed_rule(self):
        assert engine._generator is phase_space._generator

    def test_measuring_last_mode_gives_empty_state(self):
        outcome, rest = cv.homodyne(cv.vacuum_state(1), 0, 0.0, 1.0, forced=0.1)
        assert rest.n_modes == 0

    def test_degenerate_consistent_forced_ok(self):
        frozen = cv.GaussianState(np.array([2.0, 0.0]), np.diag([0.0, 1e6]))
        outcome, _ = cv.homodyne(frozen, 0, 1.0, 0.0, forced=2.0)
        assert outcome == 2.0

    def test_degenerate_inconsistent_forced_rejected(self):
        frozen = cv.GaussianState(np.array([2.0, 0.0]), np.diag([0.0, 1e6]))
        with pytest.raises(cv.DegenerateMeasurementError):
            cv.homodyne(frozen, 0, 1.0, 0.0, forced=3.0)

    def test_quadrature_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            cv.homodyne(cv.vacuum_state(1), 0, 0.0, 0.0, forced=0.0)

    @pytest.mark.parametrize(
        "c_x, c_p, name",
        [
            (math.nan, 1.0, "c_x"),
            (1.0, math.nan, "c_p"),
            (math.inf, 0.0, "c_x"),
            (0.0, -math.inf, "c_p"),
        ],
    )
    def test_quadrature_rejects_non_finite_coefficients(self, c_x, c_p, name):
        # the coefficients are refused before the forced outcome is looked at
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cv.homodyne(cv.vacuum_state(1), 0, c_x, c_p, forced=math.nan)

    @pytest.mark.parametrize(
        "c_x, forced", [(1e200, 3e199), (1e155, 3e154), (1e-200, 3e-201), (-1e-163, 0.0)]
    )
    def test_rejects_coefficients_whose_squared_norm_is_not_a_positive_float(self, c_x, forced):
        # finite coefficients whose square overflows or underflows to zero
        with pytest.raises(ValueError, match=r"\(c_x, c_p\) = \(.*positive finite squared norm"):
            cv.homodyne(cv.vacuum_state(2), 0, c_x, 0.0, forced=forced)

    def test_quadrature_accepts_the_smallest_coefficients_with_a_positive_squared_norm(self):
        _, rest = cv.homodyne(cv.vacuum_state(2), 0, 1e-160, 0.0, forced=0.0)
        np.testing.assert_array_equal(rest.cov, 0.25 * np.eye(2))

    @pytest.mark.parametrize("forced", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_forced_outcome(self, forced):
        state = random_gaussian_state(3, 2)
        with pytest.raises(ValueError, match="forced outcome must be finite"):
            cv.homodyne(state, 0, 1.0, 0.0, forced=forced)

    @pytest.mark.parametrize("n_modes", range(1, 6))
    def test_equals_update_then_drop_bitwise(self, n_modes):
        rng = np.random.Generator(np.random.PCG64(60 + n_modes))
        for seed in rng.integers(2**31, size=4).tolist():
            state = random_gaussian_state(seed, n_modes)
            for mode in range(n_modes):
                angle, outcome = float(rng.uniform(0, 2 * math.pi)), float(rng.normal())
                quad = (mode, math.cos(angle), math.sin(angle))
                measured, rest = cv.homodyne(state, *quad, forced=outcome)
                assert measured == outcome
                _assert_same_bits(rest, *_update_then_drop(state, *quad, outcome))

    @pytest.mark.parametrize("n_modes", range(1, 6))
    def test_degenerate_branch_equals_update_then_drop_bitwise(self, n_modes):
        # each mode's x given zero variance and no correlations: measuring x
        # there takes the branch that conditions on nothing
        state = random_gaussian_state(70 + n_modes, n_modes)
        for mode in range(n_modes):
            cov = state.cov.copy()
            cov[2 * mode, :] = cov[:, 2 * mode] = 0.0
            frozen = cv.GaussianState(state.mean, cov)
            outcome = float(frozen.mean[2 * mode])
            _, rest = cv.homodyne(frozen, mode, 1.0, 0.0, forced=outcome)
            _assert_same_bits(rest, *_update_then_drop(frozen, mode, 1.0, 0.0, outcome))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_purity_never_exceeds_one(self, seed):
        state = random_gaussian_state(seed, 2)
        _, rest = cv.homodyne(state, 0, 1.0, 0.2, forced=0.5)
        assert purity(rest) <= 1.0 + 1e-9


# per mode count, over seeds 0-99: the sums of the means' entries, of the
# covariance traces and of the covariance entries
RANDOM_STATE_SUMS = {
    1: (13.551325472654472, 115.05457676053672, 117.45909622016552),
    2: (-27.659748449683324, 478.14037411318753, 574.7520189519156),
    3: (25.157367126634792, 659.1188474792751, 985.9559741336695),
    4: (-30.730052014717188, 788.7607585410935, 1169.0055631464359),
}


class TestRandomGaussianState:
    @pytest.mark.parametrize("n_modes", sorted(RANDOM_STATE_SUMS))
    def test_states_are_pinned_to_their_draws(self, n_modes):
        # other tests' seeds pick these states; a changed draw order moves every sum
        states = [random_gaussian_state(seed, n_modes) for seed in range(100)]
        sums = (
            sum(float(s.mean.sum()) for s in states),
            sum(float(np.trace(s.cov)) for s in states),
            sum(float(s.cov.sum()) for s in states),
        )
        assert sums == pytest.approx(RANDOM_STATE_SUMS[n_modes], rel=1e-12, abs=1e-12)

    def test_one_mode_cz_slots_leave_the_vacuum(self):
        # a CZ slot on one mode is the identity; find seeds that draw three of them
        seeds = []
        for seed in range(1000):
            rng = np.random.Generator(np.random.PCG64(seed))
            rng.integers(0, 1, size=3)
            if (rng.integers(4, size=3) == 3).all():
                seeds.append(seed)
        assert len(seeds) >= 3
        for seed in seeds[:3]:
            state = random_gaussian_state(seed, 1)
            assert np.array_equal(state.cov, cv.vacuum_state(1).cov)
            undisplaced = random_gaussian_state(seed, 1, displaced=False)
            assert np.array_equal(undisplaced.mean, np.zeros(2))
