import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvcluster as cv
from conftest import (
    blockwise_J,
    condition_on_functional_oracle,
    heisenberg_oracle,
    random_gaussian_state,
)

TEN_DB_R = math.log(10.0) / 2.0  # e^{-2r} = 0.1


class TestStateConstructors:
    def test_vacuum_single_mode(self):
        state = cv.vacuum_state(1)
        assert np.array_equal(state.mean, [0.0, 0.0])
        assert np.array_equal(state.cov, 0.25 * np.eye(2))

    def test_vacuum_two_modes(self):
        assert np.array_equal(cv.vacuum_state(2).cov, 0.25 * np.eye(4))

    def test_vacuum_is_pure(self):
        assert cv.purity(cv.vacuum_state(1)) == pytest.approx(1.0, abs=1e-12)

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
        assert cv.purity(state) == pytest.approx(1.0, abs=1e-9)

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
        np.testing.assert_allclose(gate.S, heisenberg_oracle(G), atol=1e-12)

    def test_cz_p1_row(self):
        assert np.array_equal(cv.controlled_z().S[1], [0.0, 1.0, 1.0, 0.0])

    def test_cz_pp_x1_row(self):
        assert np.array_equal(cv.controlled_z_pp().S[0], [1.0, 0.0, 0.0, -1.0])

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
        ids=lambda g: g.label,
    )
    def test_symplectic_condition(self, gate):
        assert cv.symplectic_defect(gate.S) <= 1e-12

    @given(st.floats(-3.0, 3.0))
    def test_symplectic_condition_parametrized(self, value):
        for gate in (cv.rotation(value), cv.shear(value), cv.p_shear(value), cv.squeezer(value)):
            assert cv.symplectic_defect(gate.S) <= 1e-12

    def test_fourier_period_four(self):
        S = cv.fourier().S
        assert np.array_equal(np.linalg.matrix_power(S, 4), np.eye(2))
        assert np.array_equal(np.linalg.matrix_power(S, 2), -np.eye(2))

    def test_fourier_sends_x_displacement_to_p(self):
        out = cv.apply_gate(cv.coherent_state(1.0, 0.0), cv.fourier(), [0])
        np.testing.assert_allclose(out.mean, [0.0, 1.0], atol=1e-15)

    def test_rotation_half_pi_is_fourier(self):
        np.testing.assert_allclose(cv.rotation(math.pi / 2).S, cv.fourier().S, atol=1e-15)

    def test_rotation_zero_is_identity(self):
        assert np.array_equal(cv.rotation(0.0).S, np.eye(2))

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_rotation_group_addition(self, a, b):
        np.testing.assert_allclose(
            cv.rotation(a).S @ cv.rotation(b).S, cv.rotation(a + b).S, atol=1e-12
        )

    def test_shear_zero_is_identity(self):
        assert np.array_equal(cv.shear(0.0).S, np.eye(2))

    def test_shear_mean_map(self):
        out = cv.apply_gate(cv.coherent_state(1.0, 0.5), cv.shear(0.3), [0])
        np.testing.assert_allclose(out.mean, [1.0, 0.5 + 0.3], atol=1e-15)

    @given(st.floats(-2, 2), st.floats(-2, 2))
    def test_shear_group_addition(self, a, b):
        np.testing.assert_allclose(
            cv.shear(a).S @ cv.shear(b).S, cv.shear(a + b).S, atol=1e-15
        )

    def test_p_shear_via_fourier_conjugation(self):
        F = cv.fourier().S
        np.testing.assert_allclose(
            F @ cv.shear(0.45).S @ np.linalg.inv(F), cv.p_shear(0.45).S, atol=1e-15
        )

    def test_squeezer_zero_is_identity(self):
        assert np.array_equal(cv.squeezer(0.0).S, np.eye(2))

    def test_squeezer_mean_map_and_det(self):
        gate = cv.squeezer(0.8)
        out = cv.apply_gate(cv.coherent_state(1.0, 1.0), gate, [0])
        np.testing.assert_allclose(out.mean, [math.exp(-0.8), math.exp(0.8)], atol=1e-14)
        assert np.linalg.det(gate.S) == pytest.approx(1.0, abs=1e-14)

    def test_cz_pp_is_fourier_conjugated_cz(self):
        F2 = np.zeros((4, 4))
        F2[:2, :2] = cv.fourier().S
        F2[2:, 2:] = cv.fourier().S
        conj = F2 @ cv.controlled_z().S @ np.linalg.inv(F2)
        np.testing.assert_allclose(conj, cv.controlled_z_pp().S, atol=1e-15)

    def test_cz_commutes_with_shear_on_either_mode(self):
        cz = cv.controlled_z().S
        for mode in (0, 1):
            emb = cv.embed_symplectic(cv.shear(0.6).S, [mode], 2)
            assert np.array_equal(cz @ emb, emb @ cz)

    def test_beamsplitter_squared_is_signless_permutation(self):
        S = cv.beamsplitter_5050().S
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
        ],
    )
    def test_refusals(self, S, modes, message):
        with pytest.raises(ValueError, match=message):
            cv.embed_symplectic(S, modes, 2)


class TestApplyAndDisplace:
    def test_apply_identity_gate(self):
        state = random_gaussian_state(3, 2)
        ident = cv.SymplecticGate(np.eye(2), label="I")
        out = cv.apply_gate(state, ident, [1])
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
        S_perm = perm.T @ cv.controlled_z_pp().S @ perm
        np.testing.assert_allclose(swapped.cov, S_perm @ state.cov @ S_perm.T, atol=1e-12)

    def test_apply_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            cv.apply_gate(cv.vacuum_state(2), cv.controlled_z(), [0])

    def test_apply_rejects_repeated_mode(self):
        with pytest.raises(ValueError):
            cv.apply_gate(cv.vacuum_state(2), cv.controlled_z(), [0, 0])

    def test_displace_examples(self):
        out = cv.displace(cv.vacuum_state(1), 0, 1.0, 0.0)
        assert np.array_equal(out.mean, [1.0, 0.0])
        same = cv.displace(out, 0, 0.0, 0.0)
        assert np.array_equal(same.mean, out.mean)
        twice = cv.displace(cv.displace(cv.vacuum_state(1), 0, 0.3, -0.4), 0, 0.7, 0.4)
        np.testing.assert_allclose(twice.mean, [1.0, 0.0], atol=1e-15)

    def test_displace_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            cv.displace(cv.vacuum_state(1), 1, 0.0, 0.0)

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
        assert cv.purity(state) == pytest.approx(1.0, abs=1e-9)


class TestHomodyne:
    def test_product_state_unaffected(self):
        outcome, rest = cv.homodyne(
            cv.vacuum_state(2), cv.Quadrature(0, 1.0, 0.0), forced=0.3
        )
        assert outcome == 0.3
        np.testing.assert_allclose(rest.cov, 0.25 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(rest.mean, [0.0, 0.0], atol=1e-15)

    def test_cz_entangled_state_conditions_back_to_vacuum(self):
        state = cv.apply_gate(cv.vacuum_state(2), cv.controlled_z(), [0, 1])
        _, rest = cv.homodyne(state, cv.Quadrature(0, 1.0, 0.0), forced=0.0)
        np.testing.assert_allclose(rest.cov, 0.25 * np.eye(2), atol=1e-14)

    def test_conditional_covariance_outcome_independent(self):
        state = random_gaussian_state(5, 3)
        quad = cv.Quadrature(1, 0.6, -0.8)
        _, rest0 = cv.homodyne(state, quad, forced=0.0)
        _, rest7 = cv.homodyne(state, quad, forced=7.0)
        np.testing.assert_allclose(rest0.cov, rest7.cov, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_matches_conditioning_oracle(self, seed, n_modes):
        state = random_gaussian_state(seed, n_modes)
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        mode = int(rng.integers(n_modes))
        angle = float(rng.uniform(0, 2 * math.pi))
        quad = cv.Quadrature(mode, math.cos(angle), math.sin(angle))
        outcome = float(rng.normal())
        _, rest = cv.homodyne(state, quad, forced=outcome)
        c = np.zeros(2 * n_modes)
        c[2 * mode], c[2 * mode + 1] = quad.c_x, quad.c_p
        mu_full, cov_full = condition_on_functional_oracle(state.mean, state.cov, c, outcome)
        keep = [k for k in range(2 * n_modes) if k not in (2 * mode, 2 * mode + 1)]
        np.testing.assert_allclose(rest.mean, mu_full[keep], atol=1e-10)
        np.testing.assert_allclose(rest.cov, cov_full[np.ix_(keep, keep)], atol=1e-10)

    def test_sampled_outcome_distribution(self):
        state = cv.squeezed_vacuum(0.5, "p")
        rng = np.random.Generator(np.random.PCG64(99))
        draws = [
            cv.homodyne(state, cv.Quadrature(0, 1.0, 0.0), rng=rng)[0] for _ in range(4000)
        ]
        assert np.var(draws) == pytest.approx(math.exp(1.0) / 4, rel=0.15)

    def test_requires_outcome_source(self):
        with pytest.raises(ValueError, match="outcome source"):
            cv.homodyne(cv.vacuum_state(1), cv.Quadrature(0, 1.0, 0.0))

    def test_measuring_last_mode_gives_empty_state(self):
        outcome, rest = cv.homodyne(cv.vacuum_state(1), cv.Quadrature(0, 0.0, 1.0), forced=0.1)
        assert rest.n_modes == 0

    def test_degenerate_consistent_forced_ok(self):
        frozen = cv.GaussianState(np.array([2.0, 0.0]), np.diag([0.0, 1e6]))
        outcome, _ = cv.homodyne(frozen, cv.Quadrature(0, 1.0, 0.0), forced=2.0)
        assert outcome == 2.0

    def test_degenerate_inconsistent_forced_rejected(self):
        frozen = cv.GaussianState(np.array([2.0, 0.0]), np.diag([0.0, 1e6]))
        with pytest.raises(cv.DegenerateMeasurementError):
            cv.homodyne(frozen, cv.Quadrature(0, 1.0, 0.0), forced=3.0)

    def test_degenerate_sampling_returns_deterministic_value(self):
        frozen = cv.GaussianState(np.array([2.0, 0.0]), np.diag([0.0, 1e6]))
        outcome, _ = cv.homodyne(frozen, cv.Quadrature(0, 1.0, 0.0), rng=0)
        assert outcome == 2.0

    def test_quadrature_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            cv.Quadrature(0, 0.0, 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_purity_never_exceeds_one(self, seed):
        state = random_gaussian_state(seed, 2)
        _, rest = cv.homodyne(state, cv.Quadrature(0, 1.0, 0.2), forced=0.5)
        assert cv.purity(rest) <= 1.0 + 1e-9


class TestOverlapFidelity:
    def test_identical_vacua(self):
        assert cv.overlap_fidelity(cv.vacuum_state(1), cv.vacuum_state(1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_vacuum_against_unit_coherent(self):
        fid = cv.overlap_fidelity(cv.vacuum_state(1), cv.coherent_state(1.0, 0.0))
        assert fid == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_vacuum_against_noisy_vacuum(self):
        noisy = cv.GaussianState(np.zeros(2), (0.25 + 0.05) * np.eye(2))
        fid = cv.overlap_fidelity(cv.vacuum_state(1), noisy)
        assert fid == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_rejects_mixed_first_argument(self):
        noisy = cv.GaussianState(np.zeros(2), 0.3 * np.eye(2))
        with pytest.raises(ValueError):
            cv.overlap_fidelity(noisy, cv.vacuum_state(1))
