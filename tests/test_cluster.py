import math

import numpy as np
import pytest

import cvcluster as cv
from explicit_states import epr_resource, modified_resource
from state_oracles import purity

IDEAL = cv.IDEAL_SQUEEZING_R


def _embedded_cz(i, j, n_modes):
    """Literal CZ embedding built by index assignment, independent of the
    package's embedding helper."""
    S = np.eye(2 * n_modes)
    S[2 * i + 1, 2 * j] += 1.0
    S[2 * j + 1, 2 * i] += 1.0
    return S


def _gate_by_gate(n, r):
    """The n nodes tensored, then one ``apply_gate`` CZ per edge, left to right."""
    state = cv.squeezed_vacuum(r, "p")
    for _ in range(n - 1):
        state = cv.tensor(state, cv.squeezed_vacuum(r, "p"))
    for i in range(n - 1):
        state = cv.apply_gate(state, cv.controlled_z(), [i, i + 1])
    return state


class TestLinearCluster:
    @pytest.mark.parametrize("n", range(1, 12))
    @pytest.mark.parametrize(
        "r",
        [0.0, 0.5, cv.db_to_squeezing_r(10.0), cv.db_to_squeezing_r(50.0), IDEAL],
        ids=["0", "0.5", "10dB", "50dB", "ideal"],
    )
    def test_one_cz_layer_equals_the_gates_bitwise(self, n, r):
        state, expected = cv.linear_cluster(n, r), _gate_by_gate(n, r)
        np.testing.assert_array_equal(state.mean, expected.mean)
        np.testing.assert_array_equal(state.cov, expected.cov)

    def test_single_node_is_squeezed_mode(self):
        state = cv.linear_cluster(1, 0.7)
        np.testing.assert_allclose(
            state.cov, cv.squeezed_vacuum(0.7, "p").cov, atol=1e-15
        )

    def test_three_nodes_unsqueezed_cov(self):
        state = cv.linear_cluster(3, 0.0)
        S = _embedded_cz(1, 2, 3) @ _embedded_cz(0, 1, 3)
        expected = S @ (0.25 * np.eye(6)) @ S.T
        np.testing.assert_allclose(state.cov, expected, atol=1e-14)
        assert state.cov[3, 3] == pytest.approx(0.25 + 0.5, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("r", [0.0, 1.0, 3.0])
    def test_purity(self, n, r):
        state = cv.linear_cluster(n, r)
        assert purity(state) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_nullifier_variances(self, r):
        # p_j - x_{j-1} - x_{j+1} collapses to the node's squeezed momentum;
        # r <= 8 keeps the antisqueezed entries small enough that the check
        # is not dominated by rounding in the assembled covariance
        n = 6
        state = cv.linear_cluster(n, r)
        for j in range(1, n - 1):
            c = np.zeros(2 * n)
            c[2 * j + 1] = 1.0
            c[2 * (j - 1)] = -1.0
            c[2 * (j + 1)] = -1.0
            assert c @ state.cov @ c <= 0.75 * math.exp(-2 * r)

    def test_two_node_cluster_is_epr_up_to_local_fourier(self):
        cluster = cv.linear_cluster(2, IDEAL)
        rotated = cv.apply_gate(cluster, cv.rotation(-math.pi / 2), [0])
        epr = epr_resource(IDEAL)

        def xx_correlation(state):
            return state.cov[0, 2] / math.sqrt(state.cov[0, 0] * state.cov[2, 2])

        assert xx_correlation(rotated) == pytest.approx(xx_correlation(epr), abs=1e-9)
        assert abs(xx_correlation(rotated)) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="n_nodes must be >= 1"):
            cv.linear_cluster(0, 1.0)
        with pytest.raises(ValueError, match="squeezing_r must be >= 0"):
            cv.linear_cluster(3, -0.1)

    @pytest.mark.parametrize("n,r", [(1, 0.0), (4, 1.0), (7, 3.0)])
    def test_outputs_satisfy_state_invariants(self, n, r):
        state = cv.linear_cluster(n, r)
        assert np.max(np.abs(state.cov - state.cov.T)) <= 1e-12
        assert cv.uncertainty_defect(state) <= 1e-12


class TestAttachInput:
    def test_elementary_configuration(self):
        state = cv.attach_input(cv.vacuum_state(1), cv.linear_cluster(1, IDEAL))
        assert state.n_modes == 2
        expected = _embedded_cz(0, 1, 2) @ np.diag(
            [0.25, 0.25, math.exp(2 * IDEAL) / 4, math.exp(-2 * IDEAL) / 4]
        ) @ _embedded_cz(0, 1, 2).T
        np.testing.assert_allclose(state.cov, expected, rtol=1e-12)

    def test_input_x_marginal_unchanged(self):
        input_state = cv.squeezed_vacuum(0.4, "x")
        attached = cv.attach_input(input_state, cv.linear_cluster(3, 1.0))
        assert attached.cov[0, 0] == pytest.approx(input_state.cov[0, 0], rel=1e-12)

    def test_five_mode_configuration(self):
        attached = cv.attach_input(cv.vacuum_state(1), cv.linear_cluster(4, 1.0))
        assert attached.n_modes == 5

    def test_rejects_multimode_input(self):
        with pytest.raises(ValueError):
            cv.attach_input(cv.vacuum_state(2), cv.linear_cluster(1, 1.0))


class TestEprResource:
    def test_r_zero_is_two_mode_vacuum(self):
        np.testing.assert_allclose(epr_resource(0.0).cov, 0.25 * np.eye(4), atol=1e-15)
        np.testing.assert_allclose(epr_resource(0.0).mean, np.zeros(4), atol=1e-15)

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
    def test_epr_correlations(self, r):
        state = epr_resource(r)
        x_minus = np.array([1.0, 0.0, -1.0, 0.0])
        p_plus = np.array([0.0, 1.0, 0.0, 1.0])
        assert x_minus @ state.cov @ x_minus == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)
        assert p_plus @ state.cov @ p_plus == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)

    def test_ideal_limit_correlation_coefficient(self):
        state = epr_resource(IDEAL)
        corr = state.cov[0, 2] / math.sqrt(state.cov[0, 0] * state.cov[2, 2])
        assert corr == pytest.approx(1.0, abs=1e-9)

    def test_purity(self):
        assert purity(epr_resource(1.2)) == pytest.approx(1.0, abs=1e-9)


class TestModifiedResource:
    def test_identity_gate_gives_plain_resource(self):
        np.testing.assert_allclose(
            modified_resource(0.9, np.eye(2)).cov, epr_resource(0.9).cov, atol=1e-15
        )

    def test_squeezer_scales_second_mode_x(self):
        r, rg = 0.9, 0.35
        plain = epr_resource(r)
        modified = modified_resource(r, cv.squeezer(rg))
        assert modified.cov[2, 2] == pytest.approx(
            plain.cov[2, 2] * math.exp(-2 * rg), rel=1e-12
        )

    def test_fourier_turns_xx_into_xp_correlations(self):
        r = 1.0
        plain = epr_resource(r)
        modified = modified_resource(r, cv.fourier())
        # x2' = -p2, p2' = x2, so the x-x correlation moves to x-p
        assert modified.cov[0, 3] == pytest.approx(plain.cov[0, 2], rel=1e-12)
        assert modified.cov[0, 2] == pytest.approx(-plain.cov[0, 3], abs=1e-12)

    def test_rejects_two_mode_gate(self):
        with pytest.raises(ValueError):
            modified_resource(1.0, cv.controlled_z())
