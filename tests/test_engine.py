import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cvcluster as cv
from cvcluster import engine, protocols
from conftest import random_gaussian_state, step_noise_oracle
from explicit_states import displace
from measurement_picture import apply_correction, dual_step
from tomography import (
    NonDeterministicChannelError,
    channel_tomography,
    outcome_independence_check,
)

IDEAL = cv.IDEAL_SQUEEZING_R
TEN_DB_R = math.log(10.0) / 2.0


class TestMeasurementBasis:
    def test_plain_momentum(self):
        assert cv.measurement_basis(0.0) == (0.0, 1.0)

    def test_unit_kappa(self):
        theta, rescale = cv.measurement_basis(1.0)
        assert theta == pytest.approx(-math.pi / 4, rel=1e-12)
        assert rescale == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_negative_unit_kappa(self):
        theta, rescale = cv.measurement_basis(-1.0)
        assert theta == pytest.approx(math.pi / 4, rel=1e-12)
        assert rescale == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @given(st.floats(-10, 10))
    def test_rescaled_observable_is_p_plus_kappa_x(self, kappa):
        theta, rescale = cv.measurement_basis(kappa)
        # (p cos(theta) - x sin(theta)) * rescale == p + kappa x
        assert math.cos(theta) * rescale == pytest.approx(1.0, rel=1e-12)
        assert -math.sin(theta) * rescale == pytest.approx(kappa, rel=1e-12, abs=1e-12)

    def test_array_of_kappas_is_elementwise(self):
        kappas = np.array([-1.5, -0.2, 0.0, 0.3, 2.0])
        thetas, rescales = cv.measurement_basis(kappas)
        for kappa, theta, rescale in zip(kappas, thetas, rescales):
            assert (theta, rescale) == pytest.approx(cv.measurement_basis(float(kappa)), rel=1e-15)

    def test_chain_records_carry_the_basis(self):
        kappas = [0.3, -0.7, 1.1]
        _, records, _ = cv.run_protocol(
            cv.vacuum_state(1), [cv.StepPlan(k) for k in kappas], 1.0, 5
        )
        thetas, rescales = cv.measurement_basis(np.array(kappas))
        assert list(records.theta) == list(thetas)
        for raw, rescaled, rescale in zip(records.raw_outcome, records.rescaled_outcome, rescales):
            assert rescaled == pytest.approx(raw * rescale, rel=1e-15)


class TestUpdateFrame:
    def test_first_step(self):
        assert cv.update_frame((0.0, 0.0), 1.7, 0.4) == (1.7, 0.0)

    def test_second_step_matches_two_step_correction(self):
        # running outcomes (s1, s2) leaves X(s2 - kappa s1) Z(s1)
        s1, s2, kappa = 0.9, -0.4, 0.6
        frame = cv.update_frame((0.0, 0.0), s1, 0.0)
        u, v = cv.update_frame(frame, s2, kappa)
        assert u == pytest.approx(s2 - kappa * s1)
        assert v == pytest.approx(s1)

    def test_kappa_zero_is_fourier_rotation(self):
        assert cv.update_frame((0.3, -0.8), 2.0, 0.0) == (2.0 + 0.8, 0.3)


class TestKappaRule:
    """Every entry that takes a chain refuses it by the one rule, with its text."""

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: cv.chain_channel([math.nan], 1.0),
            lambda: cv.chain_channel([0.2, math.inf], 1.0),
            lambda: cv.chain_records(cv.vacuum_state(1), [0.1, math.nan], 1.0, [0]),
            lambda: cv.squeezer_four_step(math.inf, 1.0, cv.vacuum_state(1)),
            lambda: cv.repeated_squeezer(2, -math.inf, 1.0, cv.vacuum_state(1)),
            lambda: cv.run_protocol(cv.vacuum_state(1), [cv.StepPlan(math.inf)], 1.0, 0),
            # a Python int past the largest float, which np.array refuses with OverflowError
            lambda: cv.chain_channel([10**400], 1.0),
            lambda: cv.chain_records(cv.vacuum_state(1), [0.1, -(10**400)], 1.0, [0]),
            lambda: cv.squeezer_four_step(10**400, 1.0, cv.vacuum_state(1)),
            lambda: cv.repeated_squeezer(1, -(10**400), 1.0, cv.vacuum_state(1)),
            lambda: cv.run_protocol(cv.vacuum_state(1), [cv.StepPlan(10**400)], 1.0, 0),
        ],
        ids=["chain_channel", "chain_channel_inf", "chain_records", "squeezer_four_step",
             "repeated_squeezer", "run_protocol", "chain_channel_int", "chain_records_int",
             "squeezer_four_step_int", "repeated_squeezer_int", "run_protocol_int"],
    )
    def test_refuses_a_kappa_that_is_not_finite(self, entry):
        with pytest.raises(ValueError, match=r"^kappa must be finite$"):
            entry()

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: cv.chain_channel([], 1.0),
            lambda: cv.chain_records(cv.vacuum_state(1), [], 1.0, [0]),
            lambda: cv.run_protocol(cv.vacuum_state(1), [], 1.0, 0),
        ],
        ids=["chain_channel", "chain_records", "run_protocol"],
    )
    def test_refuses_an_empty_chain(self, entry):
        with pytest.raises(ValueError, match=r"^at least one step is required$"):
            entry()

    def test_a_chain_is_its_list_of_kappas(self):
        kappas = [0.2, 0.2, -0.2, -0.2]
        report = cv.squeezer_four_step(0.2, 1.0, cv.vacuum_state(1))
        assert report.channel == cv.chain_channel(kappas, 1.0)[0]
        assert cv.chain_channel(np.array(kappas), 1.0) == cv.chain_channel(kappas, 1.0)


def _frame_weights_reference(kappas):
    """T[:, j] = d(frame)/d(s_j) by the per-step backward pass: three scalar
    update_frame calls per step probe b_j and the columns of A_j."""
    k = len(kappas)
    T = np.empty((2, k))
    g00, g01, g10, g11 = 1.0, 0.0, 0.0, 1.0  # A_{k-1} ... A_{j+1}
    for j in range(k - 1, -1, -1):
        kappa = float(kappas[j])
        bu, bv = cv.update_frame((0.0, 0.0), 1.0, kappa)
        a0u, a0v = cv.update_frame((1.0, 0.0), 0.0, kappa)
        a1u, a1v = cv.update_frame((0.0, 1.0), 0.0, kappa)
        T[0, j] = g00 * bu + g01 * bv
        T[1, j] = g10 * bu + g11 * bv
        g00, g01, g10, g11 = (
            g00 * a0u + g01 * a0v,
            g00 * a1u + g01 * a1v,
            g10 * a0u + g11 * a0v,
            g10 * a1u + g11 * a1v,
        )
    return T


def _corrected_weights_reference(kappas):
    """(Wx, Wp) by the corrected-row formula, out - T m, over the zero-padded
    T of ``_frame_weights_reference``."""
    k = len(kappas)
    padded = np.zeros((2, k + 3))  # column j + 1 holds T_j; T_{-1} = T_k = T_{k+1} = 0
    padded[:, 1 : k + 1] = _frame_weights_reference(kappas)
    kappa_x = np.append(kappas, 0.0)
    Wx = -(padded[:, : k + 1] + (kappa_x * padded[:, 1 : k + 2] + padded[:, 2:]))
    Wp = -padded[:, 1 : k + 2]
    Wx[0, k] += 1.0
    Wx[1, k - 1] += 1.0
    Wp[1, k] += 1.0
    return Wx, Wp


class TestFrameWeights:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
            min_size=1,
            max_size=300,
        )
    )
    @example([0.0])
    @example([1.0, -1.0, 0.0, 1.0])
    @example([-1.0] * 300)
    def test_one_array_call_matches_per_step_reference_bit_for_bit(self, kappas):
        Wx, Wp = engine._corrected_weights(np.array(kappas))
        want_x, want_p = _corrected_weights_reference(kappas)
        assert Wx.shape == Wp.shape == (2, len(kappas) + 1)
        assert Wx.tobytes() == want_x.tobytes()
        assert Wp.tobytes() == want_p.tobytes()


class TestRunProtocol:
    def test_single_fourier_step_ideal(self):
        out, records, frame = cv.run_protocol(cv.vacuum_state(1), [cv.StepPlan(0.0)], IDEAL, 3)
        assert frame == (records.rescaled_outcome[0], 0.0)
        corrected = apply_correction(out, frame)
        np.testing.assert_allclose(corrected.mean, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(corrected.cov, 0.25 * np.eye(2), atol=1e-9)
        assert records.mode == range(1)

    def test_single_shear_step_mean_map(self):
        kappa = 0.7
        out, _, frame = cv.run_protocol(cv.coherent_state(1.0, 0.0), [cv.StepPlan(kappa)], IDEAL, 4)
        corrected = apply_correction(out, frame)
        np.testing.assert_allclose(corrected.mean, [-kappa, 1.0], atol=1e-12)

    def test_single_step_finite_r_channel(self):
        kappa, r = 0.5, 0.9
        state = random_gaussian_state(21, 1)
        out, _, frame = cv.run_protocol(state, [cv.StepPlan(kappa)], r, 21)
        corrected = apply_correction(out, frame)
        S = cv.fourier_shear_step(kappa)
        expected_cov = S @ state.cov @ S.T + np.diag([0.0, math.exp(-2 * r) / 4])
        np.testing.assert_allclose(corrected.cov, expected_cov, atol=1e-12)
        np.testing.assert_allclose(corrected.mean, S @ state.mean, atol=1e-12)

    @pytest.mark.parametrize("r", [0.4, TEN_DB_R, 2.0])
    @pytest.mark.parametrize("kappas", [[0.0, 0.0, 0.0], [0.3, -0.2, 0.8, 0.1]])
    def test_multi_step_matches_composition_oracle(self, r, kappas):
        steps = [cv.StepPlan(k) for k in kappas]
        state = random_gaussian_state(5, 1)
        out, _, frame = cv.run_protocol(state, steps, r, 17)
        corrected = apply_correction(out, frame)
        S, N = step_noise_oracle(kappas, r)
        np.testing.assert_allclose(corrected.cov, S @ state.cov @ S.T + N, atol=1e-11)
        np.testing.assert_allclose(corrected.mean, S @ state.mean, atol=1e-11)

    def test_matches_assembled_cluster_route(self):
        # cross-check the per-step evaluation against explicit row algebra on
        # the fully assembled input-plus-cluster covariance
        kappas = [0.4, -0.7, 0.2, 0.0, 1.3, -0.1, 0.6, -1.2, 0.3, 0.0, -0.5, 0.9]
        k, r = len(kappas), 1.1
        state = random_gaussian_state(8, 1)
        steps = [cv.StepPlan(kappa) for kappa in kappas]
        out, _, frame = cv.run_protocol(state, steps, r, 8)
        corrected = apply_correction(out, frame)

        big = cv.attach_input(state, cv.linear_cluster(k, r))
        n = big.n_modes
        C = np.zeros((k, 2 * n))
        for j, kappa in enumerate(kappas):
            C[j, 2 * j] = kappa
            C[j, 2 * j + 1] = 1.0
        T = np.zeros((2, k))
        for j in range(k):
            frame_j = (0.0, 0.0)
            for i, kappa in enumerate(kappas):
                frame_j = cv.update_frame(frame_j, 1.0 if i == j else 0.0, kappa)
            T[:, j] = frame_j
        P = np.zeros((2, 2 * n))
        P[0, 2 * k] = 1.0
        P[1, 2 * k + 1] = 1.0
        R = P - T @ C
        np.testing.assert_allclose(corrected.mean, R @ big.mean, atol=1e-10)
        np.testing.assert_allclose(corrected.cov, R @ big.cov @ R.T, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        kappas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300),
        db=st.floats(0.0, 60.0),
        seed=st.integers(0, 2**16),
    )
    def test_corrected_moments_match_recursion_oracle(self, kappas, db, seed):
        r = cv.db_to_squeezing_r(db)
        steps = [cv.StepPlan(kappa) for kappa in kappas]
        S, N = step_noise_oracle(kappas, r)
        state = random_gaussian_state(seed, 1)
        out, _, frame = cv.run_protocol(state, steps, r, seed)
        corrected = apply_correction(out, frame)

        def scale(a):
            return float(np.max(np.abs(a)))

        # apply_correction subtracts the frame, so the mean is good to the
        # frame's rounding; the covariance to that of S cov S^T + N
        mean_tol = 1e-9 * (scale(S) * scale(state.mean) + abs(frame[0]) + abs(frame[1]))
        assert scale(corrected.mean - S @ state.mean) <= mean_tol
        expected_cov = S @ state.cov @ S.T + N
        assert scale(corrected.cov - expected_cov) <= 1e-9 * scale(expected_cov)

        # N alone, as an input without covariance would carry it, at its own scale
        assert scale(cv.chain_channel(kappas, r)[0].N - N) <= 1e-9 * scale(N)

    def test_five_thousand_step_chain_matches_oracle(self):
        # far beyond what a dense 2n x 2n chain assembly could finish
        kappas = [0.02, 0.02, -0.02, -0.02] * 1250
        r = TEN_DB_R
        state = random_gaussian_state(13, 1)
        out, records, frame = cv.run_protocol(
            state, [cv.StepPlan(kappa) for kappa in kappas], r, 5
        )
        corrected = apply_correction(out, frame)
        S, N = step_noise_oracle(kappas, r)
        assert len(records.raw_outcome) == 5000
        np.testing.assert_allclose(corrected.cov, S @ state.cov @ S.T + N, rtol=1e-9)
        np.testing.assert_allclose(corrected.mean, S @ state.mean, rtol=1e-9, atol=1e-9)

    def test_sampled_outcomes_follow_joint_law(self):
        # the outcome vector of p_j + kappa_j x_j read off the assembled
        # input-plus-cluster state has mean C mu and covariance C cov C^T
        kappas, r = [0.5, -0.3, 0.8], 0.4
        state = random_gaussian_state(3, 1)
        big = cv.attach_input(state, cv.linear_cluster(3, r))
        C = np.zeros((3, 2 * big.n_modes))
        for j, kappa in enumerate(kappas):
            C[j, 2 * j] = kappa
            C[j, 2 * j + 1] = 1.0
        L = np.linalg.cholesky(C @ big.cov @ C.T)

        steps = [cv.StepPlan(kappa) for kappa in kappas]
        draws = np.array(
            [cv.run_protocol(state, steps, r, seed)[1].rescaled_outcome for seed in range(4000)]
        )
        white = np.linalg.solve(L, (draws - C @ big.mean).T)
        # 4000 draws: standard errors about 0.016 (mean) and 0.022 (variances)
        assert np.max(np.abs(white.mean(axis=1))) < 0.1
        assert np.max(np.abs(np.cov(white) - np.eye(3))) < 0.1

    def test_uncorrected_minus_corrected_is_frame(self):
        out, _, frame = cv.run_protocol(
            cv.vacuum_state(1), [cv.StepPlan(0.3), cv.StepPlan(-0.2)], 1.0, 7
        )
        corrected = apply_correction(out, frame)
        np.testing.assert_allclose(
            out.mean - corrected.mean, frame, atol=1e-12
        )
        np.testing.assert_allclose(out.cov, corrected.cov, atol=1e-15)

    def test_frame_accumulates_fold_of_records(self):
        out, records, frame = cv.run_protocol(
            cv.vacuum_state(1), [cv.StepPlan(0.5)] * 3, 1.0, 99
        )
        refolded = (0.0, 0.0)
        for value, kappa in zip(records.rescaled_outcome, records.kappa):
            refolded = cv.update_frame(refolded, value, kappa)
        assert frame == pytest.approx(refolded)

    def test_sampled_outcome_variance(self):
        # raw p-readings of the first step are dominated by the antisqueezed
        # neighbor: Var = Var(p_in) + e^{2r}/4
        r = 0.8
        draws = [
            cv.run_protocol(cv.vacuum_state(1), [cv.StepPlan(0.0)], r, seed)[1].raw_outcome[0]
            for seed in range(1500)
        ]
        expected = 0.25 + math.exp(2 * r) / 4
        assert np.var(draws) == pytest.approx(expected, rel=0.15)

    def test_record_rescale_invariant(self):
        _, records, _ = cv.run_protocol(
            cv.vacuum_state(1), [cv.StepPlan(k) for k in (-1.5, 0.0, 2.0)], 1.0, 3
        )
        events = zip(records.theta, records.raw_outcome, records.rescaled_outcome)
        for theta, raw, rescaled in events:
            assert rescaled * math.cos(theta) == pytest.approx(raw, abs=1e-12)

    def test_rejects_multimode_input(self):
        with pytest.raises(ValueError):
            cv.run_protocol(cv.vacuum_state(2), [cv.StepPlan(0.0)], 1.0, 0)

    @pytest.mark.parametrize("r", [IDEAL, TEN_DB_R])
    def test_outcome_independence(self, r):
        steps = [cv.StepPlan(0.2), cv.StepPlan(0.2), cv.StepPlan(-0.2), cv.StepPlan(-0.2)]

        def run(seed):
            out, _, frame = cv.run_protocol(cv.vacuum_state(1), steps, r, seed)
            return apply_correction(out, frame)

        assert outcome_independence_check(run, range(20)) <= 1e-9


# outcome sources other than an integer seed, which every record draw refuses
NOT_SEEDS = [[1, 2, 3], True, 0.5, np.random.Generator(np.random.PCG64(9))]


class TestChainRecords:
    def test_seeds_in_one_call_equal_one_call_per_seed(self):
        state = random_gaussian_state(4, 1)
        steps = [0.3, -0.7, 1.1]
        together = cv.chain_records(state, steps, TEN_DB_R, [5, 9, 6])
        alone = tuple(cv.chain_records(state, steps, TEN_DB_R, [s])[0] for s in (5, 9, 6))
        assert len(together) == 3
        assert together == alone
        assert cv.chain_records(state, steps, TEN_DB_R, [np.int64(9)]) == alone[1:2]

    @pytest.mark.parametrize("source", NOT_SEEDS, ids=["list", "bool", "float", "Generator"])
    def test_every_draw_refuses_a_source_that_is_not_an_integer_seed(self, source):
        state, kappas = cv.vacuum_state(1), [0.3, -0.2]
        refused = pytest.raises(TypeError, match="an outcome seed must be an integer")
        with refused:
            cv.chain_records(state, kappas, TEN_DB_R, [source])
        with refused:
            cv.run_protocol(state, [cv.StepPlan(k) for k in kappas], TEN_DB_R, source)
        with refused:
            dual_step(state, TEN_DB_R, source)


def _sampler_factor(law):
    """``pair_sampler``'s lower factor, read off its draws at zero mean: z = (1, 0)
    gives the first column and z = (0, 1) the second, each exactly."""
    draw = engine.pair_sampler((0.0, 0.0), law)
    (l00, l10), (_, l11) = draw(1.0, 0.0), draw(0.0, 1.0)
    return np.array([[l00, 0.0], [l10, l11]])


# the inputs a config can build: diagonal covariances, squeezed up to the largest r
DIAGONAL_INPUTS = [cv.vacuum_state(1), cv.coherent_state(0.6, -0.9)] + [
    cv.squeezed_vacuum(r, axis) for r in (0.4, 5.0, 50.0, 354.0) for axis in "xp"
]


class TestPairSampler:
    @pytest.mark.parametrize("db", [0.0, 3.0, 10.0, 50.0, 100.0, 300.0])
    def test_factor_equals_lapack_bit_for_bit_on_diagonal_laws(self, monkeypatch, db):
        laws = [state.cov.tolist() for state in DIAGONAL_INPUTS]
        sampler = protocols.pair_sampler

        def spy(mean, law):  # the off-line readings' law of each input
            laws.append(law)
            return sampler(mean, law)

        monkeypatch.setattr(protocols, "pair_sampler", spy)
        for state in DIAGONAL_INPUTS:
            cv.offline_teleport(state, cv.db_to_squeezing_r(db)).record_columns
        assert len(laws) == 2 * len(DIAGONAL_INPUTS)
        for law in laws:
            assert _sampler_factor(law).tobytes() == np.linalg.cholesky(law).tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_draw_is_the_mean_plus_the_factor_times_z(self, seed):
        # correlated laws too, where the factor and the sum may round otherwise than LAPACK's
        state = random_gaussian_state(seed, 1)
        z = np.random.Generator(np.random.PCG64(seed)).standard_normal(2)
        draw = engine.pair_sampler(state.mean.tolist(), state.cov.tolist())(*z.tolist())
        expected = state.mean + np.linalg.cholesky(state.cov) @ z
        np.testing.assert_allclose(draw, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize(
        "law",
        [
            [[1e12, 1e12], [1e12, 1e12]],  # singular: the second pivot is 0
            [[0.0, 0.0], [0.0, 1.0]],
            [[-1.0, 0.0], [0.0, 1.0]],
            [[math.nan, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -1.0]],
            [[1.0, 0.0], [0.0, math.nan]],
            [[1.0, 2.0], [2.0, 1.0]],
        ],
    )
    def test_refuses_a_pivot_that_is_not_positive(self, law):
        refused = pytest.raises(np.linalg.LinAlgError, match="Matrix is not positive definite")
        with refused:
            engine.pair_sampler((0.0, 0.0), law)
        if not np.isnan(law).any():  # OpenBLAS's potrf lets a NaN pivot through
            with refused:
                np.linalg.cholesky(law)

    @pytest.mark.parametrize(
        "protocol", ["identity_chain", "squeezer_four_step", "repeated_squeezer"]
    )
    def test_singular_input_is_refused_when_read(self, protocol):
        # it obeys the uncertainty relation, so the report is built; an off-line
        # protocol's readings' law adds the resource noise to its diagonal
        state = cv.GaussianState(np.zeros(2), np.full((2, 2), 1e12))
        report = cv.run_named_protocol(protocol, {"input_state": state})
        with pytest.raises(np.linalg.LinAlgError, match="Matrix is not positive definite"):
            report.record_columns


def _channel(noise=0.1):
    return engine.GaussianChannel(cv.shear(0.4), noise * np.eye(2))


def test_a_channel_holds_read_only_copies():
    S, N = np.eye(2), np.zeros((2, 2))
    channel = engine.GaussianChannel(S, N)
    assert channel.S is not S and S.flags.writeable
    for array in (channel.S, channel.N):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 2.0


class TestChannelEquality:
    def test_distinct_equal_channels_compare_equal(self):
        a, b = _channel(), _channel()
        assert a is not b
        assert a == b and not a != b

    def test_chain_channels_of_the_same_chain_compare_equal(self):
        steps = protocols.squeezer_steps(0.2)
        assert engine.chain_channel(steps, 1.0)[0] == engine.chain_channel(steps, 1.0)[0]

    @pytest.mark.parametrize(
        "other",
        [
            engine.GaussianChannel(cv.shear(0.5), 0.1 * np.eye(2)),
            _channel(noise=0.2),
            engine.GaussianChannel(np.eye(4), np.zeros((4, 4))),
        ],
        ids=["S", "N", "modes"],
    )
    def test_a_different_field_compares_unequal(self, other):
        assert _channel() != other and not _channel() == other

    @pytest.mark.parametrize(
        "other", [None, 1.0, cv.vacuum_state(1), (cv.shear(0.4), 0.1 * np.eye(2))]
    )
    def test_a_non_channel_compares_unequal(self, other):
        assert _channel() != other and not _channel() == other

    def test_stays_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(_channel())


class TestMutationGuard:
    def test_flipped_frame_sign_breaks_the_step_budget(self, monkeypatch):
        # the engine derives its correction from update_frame, so a wrong
        # frame rule must show up as noise from the anti-squeezed quadratures
        def flipped(frame, s, kappa):
            u, v = frame
            return s - kappa * u + v, u

        monkeypatch.setattr(engine, "update_frame", flipped)
        report = cv.identity_chain(5, cv.db_to_squeezing_r(100.0), cv.vacuum_state(1))
        check = report.check("noise_matches_oracle")
        assert not check.passed
        assert check.value > 1e9


class TestChannelTomography:
    def test_pass_through(self):
        channel, d = channel_tomography(lambda state, seed: state)
        np.testing.assert_allclose(channel.S, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(channel.N, np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(d, np.zeros(2), atol=1e-12)

    def test_measures_a_displacement(self):
        channel, d = channel_tomography(lambda state, seed: displace(state, 0, 0.3, -0.5))
        np.testing.assert_allclose(channel.S, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(d, [0.3, -0.5], atol=1e-12)

    def _runner(self, kappas, r):
        steps = [cv.StepPlan(k) for k in kappas]

        def run(state, seed):
            out, _, frame = cv.run_protocol(state, steps, r, seed)
            return apply_correction(out, frame)

        return run

    def test_single_step_ideal(self):
        kappa = 0.8
        channel, d = channel_tomography(self._runner([kappa], IDEAL))
        np.testing.assert_allclose(channel.S, cv.fourier_shear_step(kappa), atol=1e-9)
        np.testing.assert_allclose(channel.N, np.zeros((2, 2)), atol=1e-9)
        np.testing.assert_allclose(d, np.zeros(2), atol=1e-9)

    def test_single_step_finite_noise(self):
        channel, _ = channel_tomography(self._runner([0.0], TEN_DB_R))
        np.testing.assert_allclose(channel.N, np.diag([0.0, 0.025]), atol=1e-12)

    def test_two_step_channel_composes(self):
        (single, _), (double, _) = (
            channel_tomography(self._runner(kappas, IDEAL)) for kappas in ([0.4], [0.4, 0.4])
        )
        np.testing.assert_allclose(double.S, single.S @ single.S, atol=1e-8)

    def test_channel_apply_reproduces_protocol_action(self):
        runner = self._runner([0.3, -0.5], 1.0)
        channel, _ = channel_tomography(runner)
        for seed in range(10):
            state = random_gaussian_state(seed, 1)
            direct = runner(state, 0)
            via_channel = channel.apply(state)
            np.testing.assert_allclose(direct.mean, via_channel.mean, atol=1e-8)
            np.testing.assert_allclose(direct.cov, via_channel.cov, atol=1e-8)

    def test_noise_psd(self):
        for kappas, r in (([0.6], IDEAL), ([0.2, -0.9, 0.4], TEN_DB_R)):
            channel, _ = channel_tomography(self._runner(kappas, r))
            assert np.linalg.eigvalsh(channel.N)[0] >= -1e-10

    def test_refuses_seed_dependent_protocol(self):
        def bad(state, seed):
            return displace(state, 0, 1e-3 * seed, 0.0)

        with pytest.raises(NonDeterministicChannelError):
            channel_tomography(bad)


class TestDualStep:
    def test_ideal_vacuum_passthrough(self):
        out, record = dual_step(cv.vacuum_state(1), IDEAL, 3)
        t = record.raw_outcome[0]
        assert record == ((0,), (0,), (0.0,), (-math.pi / 2,), (t,), (t,))
        corrected = displace(out, 0, 0.0, t)
        np.testing.assert_allclose(corrected.mean, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(corrected.cov, 0.25 * np.eye(2), atol=1e-9)

    def test_corrected_channel_is_fourier_conjugated_primal(self):
        def dual_runner(state, seed):
            out, record = dual_step(state, IDEAL, seed)
            return displace(out, 0, 0.0, record.raw_outcome[0])

        def primal_runner(state, seed):
            out, _, frame = cv.run_protocol(state, [cv.StepPlan(0.0)], IDEAL, seed)
            return apply_correction(out, frame)

        dual, _ = channel_tomography(dual_runner)
        primal, _ = channel_tomography(primal_runner)
        F = cv.fourier()
        np.testing.assert_allclose(dual.S, F @ primal.S @ np.linalg.inv(F), atol=1e-9)
        np.testing.assert_allclose(dual.N, F @ primal.N @ F.T, atol=1e-9)

    def test_finite_r_noise_in_single_quadrature(self):
        r = 1.3
        out, record = dual_step(cv.vacuum_state(1), r, 4)
        corrected = displace(out, 0, 0.0, record.raw_outcome[0])
        expected = 0.25 * np.eye(2) + np.diag([math.exp(-2 * r) / 4, 0.0])
        np.testing.assert_allclose(corrected.cov, expected, atol=1e-14)

    def test_byproduct_is_momentum_displacement(self):
        out, record = dual_step(cv.coherent_state(0.4, -0.3), IDEAL, 8)
        (t,) = record.raw_outcome
        # uncorrected output carries Z(-t) on top of the Fourier action
        np.testing.assert_allclose(out.mean, [0.3, 0.4 - t], atol=1e-12)
        np.testing.assert_allclose(displace(out, 0, 0.0, t).mean, [0.3, 0.4], atol=1e-12)

    def test_sampled_outcome_follows_its_law(self):
        # t reads x - p_a of the product state: N(<x_in>, Var x_in + e^{2r}/4)
        r = 0.5
        state = random_gaussian_state(5, 1)
        draws = np.array([dual_step(state, r, seed)[1].raw_outcome[0] for seed in range(2000)])
        white = (draws - state.mean[0]) / math.sqrt(state.cov[0, 0] + math.exp(2 * r) / 4)
        # 2000 draws: standard errors about 0.022 (mean) and 0.032 (variance)
        assert abs(white.mean()) < 0.1
        assert abs(white.var() - 1.0) < 0.1
