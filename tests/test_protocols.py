import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvcluster as cv
from cvcluster import checks, cli, engine, protocols
from conftest import step_noise_oracle
from tomography import channel_tomography

IDEAL = cv.IDEAL_SQUEEZING_R
TEN_DB_R = math.log(10.0) / 2.0
VAC = cv.vacuum_state(1)


class TestIdentityChain:
    def test_two_modes_ideal_is_single_fourier(self):
        report = cv.identity_chain(2, IDEAL, VAC)
        np.testing.assert_allclose(report.channel.S, cv.fourier().S, atol=1e-9)
        np.testing.assert_allclose(report.channel.N, np.zeros((2, 2)), atol=1e-9)

    def test_noise_trace_at_ten_db(self):
        report = cv.identity_chain(5, TEN_DB_R, VAC)
        assert report.noise_trace == pytest.approx(0.1, abs=1e-9)
        assert report.check("noise_trace_matches_step_budget").passed

    def test_five_modes_ideal_closes_fourier_period(self):
        report = cv.identity_chain(5, IDEAL, VAC)
        np.testing.assert_allclose(report.channel.S, np.eye(2), atol=1e-9)
        assert report.deviation <= 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_noise_budget_scales_with_length(self, n):
        report = cv.identity_chain(n, TEN_DB_R, VAC)
        assert report.noise_trace == pytest.approx((n - 1) * 0.025, abs=1e-9)

    def test_all_checks_pass(self):
        assert cv.identity_chain(4, TEN_DB_R, VAC).all_passed()

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            cv.identity_chain(1, 1.0, VAC)


class TestSqueezerFourStep:
    def test_channel_matches_closed_form(self):
        report = cv.squeezer_four_step(0.2, IDEAL, VAC)
        np.testing.assert_allclose(
            report.channel.S, [[0.9616, 0.008], [0.008, 1.04]], atol=1e-6
        )
        assert report.check("matches_exact_four_step_matrix").passed

    def test_vacuum_output_x_variance(self):
        report = cv.squeezer_four_step(0.2, IDEAL, VAC)
        expected = 0.25 * (0.9616**2 + 0.008**2)
        assert report.check("output_var_x").value == pytest.approx(expected, abs=1e-6)

    def test_kappa_zero_matches_identity_chain(self):
        squeezer = cv.squeezer_four_step(0.0, TEN_DB_R, VAC)
        chain = cv.identity_chain(5, TEN_DB_R, VAC)
        np.testing.assert_allclose(squeezer.channel.S, chain.channel.S, atol=1e-9)
        np.testing.assert_allclose(squeezer.channel.N, chain.channel.N, atol=1e-9)

    def test_deviation_bound(self):
        kappa = 0.2
        report = cv.squeezer_four_step(kappa, IDEAL, VAC)
        assert report.deviation <= 2 * kappa**3
        assert report.check("within_cubic_error_of_target").passed

    @pytest.mark.parametrize("kappa", [0.025, 0.05, 0.1])
    def test_cubic_scaling_of_deviation(self, kappa):
        small = cv.squeezer_four_step(kappa, IDEAL, VAC).deviation
        large = cv.squeezer_four_step(2 * kappa, IDEAL, VAC).deviation
        assert 7.0 <= large / small <= 9.0

    def test_finite_squeezing_report_still_exact_mean_map(self):
        report = cv.squeezer_four_step(0.2, TEN_DB_R, VAC)
        assert report.check("matches_exact_four_step_matrix").passed
        assert report.noise_trace > 0.09  # four steps of 0.025 conjugated


class TestRepeatedSqueezer:
    def test_single_segment_matches_four_step(self):
        repeated = cv.repeated_squeezer(1, 0.2, IDEAL, VAC)
        four = cv.squeezer_four_step(0.2, IDEAL, VAC)
        np.testing.assert_allclose(repeated.channel.S, four.channel.S, atol=1e-9)

    def test_two_segments_squares_the_matrix(self):
        kappa = 0.2
        report = cv.repeated_squeezer(2, kappa, IDEAL, VAC)
        M = cv.squeezer_protocol_matrix(kappa)
        np.testing.assert_allclose(report.channel.S, M @ M, atol=1e-8)
        # squeezing exponents add up to the per-segment cubic error
        assert report.channel.S[1, 1] == pytest.approx(
            (1 + kappa**2) ** 2, abs=4 * kappa**6
        )

    def test_noise_grows_with_segments(self):
        traces = [
            cv.repeated_squeezer(seg, 0.2, TEN_DB_R, VAC).noise_trace for seg in (1, 2, 3)
        ]
        assert traces[0] < traces[1] < traces[2]

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError):
            cv.repeated_squeezer(0, 0.2, 1.0, VAC)


class TestOfflineTeleport:
    @pytest.mark.parametrize(
        "eps,expected", [(1.0, 0.5), (0.5, 2.0 / 3.0), (0.1, 1.0 / 1.1)]
    )
    def test_vacuum_fidelity_closed_form(self, eps, expected):
        r = -0.5 * math.log(eps)
        report = cv.offline_teleport(VAC, r)
        assert report.fidelity == pytest.approx(expected, abs=1e-6)
        assert report.check("vacuum_fidelity_matches_closed_form").passed

    def test_ideal_limit_is_replica(self):
        input_state = cv.coherent_state(0.7, -1.2)
        report = cv.offline_teleport(input_state, IDEAL)
        out = report.channel.apply(input_state)
        np.testing.assert_allclose(out.mean, input_state.mean, atol=1e-6)
        np.testing.assert_allclose(out.cov, input_state.cov, atol=1e-6)

    def test_unity_gain_channel(self):
        report = cv.offline_teleport(VAC, 1.0)
        np.testing.assert_allclose(report.channel.S, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(
            report.channel.N, 0.5 * math.exp(-2.0) * np.eye(2), atol=1e-9
        )

    def test_fidelity_monotone_in_squeezing(self):
        fidelities = [
            cv.offline_teleport(VAC, r).fidelity for r in (0.0, 0.3, 0.7, 1.5, 3.0, IDEAL)
        ]
        assert all(a < b for a, b in zip(fidelities, fidelities[1:]))
        assert fidelities[-1] == pytest.approx(1.0, abs=1e-6)

    def test_outcome_independent(self):
        report = cv.offline_teleport(VAC, TEN_DB_R)
        check = report.check("outcome_independent")
        assert check.passed and check.value <= 1e-9

    def test_nonvacuum_input_noise_shape(self):
        input_state = cv.squeezed_vacuum(0.6, "x")
        report = cv.offline_teleport(input_state, 1.0)
        out = report.channel.apply(input_state)
        expected = input_state.cov + 0.5 * math.exp(-2.0) * np.eye(2)
        np.testing.assert_allclose(out.cov, expected, atol=1e-9)


class TestOfflineSqueezer:
    def test_channel_matches_target(self):
        report = cv.offline_squeezer(VAC, IDEAL, 0.04)
        np.testing.assert_allclose(
            report.channel.S, np.diag([math.exp(-0.04), math.exp(0.04)]), atol=1e-6
        )
        np.testing.assert_allclose(report.channel.N, np.zeros((2, 2)), atol=1e-9)
        assert report.check("channel_matches_target_squeezer").passed

    def test_gate_zero_reduces_to_teleport(self):
        squeezer = cv.offline_squeezer(VAC, 1.0, 0.0)
        teleport = cv.offline_teleport(VAC, 1.0)
        np.testing.assert_allclose(squeezer.channel.S, teleport.channel.S, atol=1e-9)
        np.testing.assert_allclose(squeezer.channel.N, teleport.channel.N, atol=1e-9)

    def test_finite_resource_noise_is_squeezed(self):
        r_res, r_gate = 1.0, 0.3
        report = cv.offline_squeezer(VAC, r_res, r_gate)
        expected = (
            0.5
            * math.exp(-2 * r_res)
            * np.diag([math.exp(-2 * r_gate), math.exp(2 * r_gate)])
        )
        np.testing.assert_allclose(report.channel.N, expected, atol=1e-9)
        assert report.check("noise_is_squeezed_teleportation_noise").passed
        # at 150 dB with r_gate = 30, N reaches 5.7e10 and its check is held
        # to the rounding of that scale
        assert cv.offline_squeezer(VAC, cv.db_to_squeezing_r(150.0), 30.0).all_passed()

    def test_comparable_to_cluster_squeezer(self):
        # same target squeezing r = kappa^2; the schemes agree to O(kappa^3)
        kappa = 0.2
        cluster = cv.squeezer_four_step(kappa, IDEAL, VAC)
        offline = cv.offline_squeezer(VAC, IDEAL, kappa**2)
        gap = np.linalg.norm(cluster.channel.S - offline.channel.S, ord="fro")
        assert gap <= 2 * kappa**3

    def test_unscaled_correction_is_outcome_dependent(self):
        report = cv.offline_squeezer(VAC, IDEAL, 0.04, rescale_correction=False)
        check = report.check("outcome_dependence_detected")
        assert check.passed and check.value > 1e-3

    def test_scaled_correction_is_outcome_independent(self):
        report = cv.offline_squeezer(VAC, IDEAL, 0.04)
        assert report.check("outcome_independent").value <= 1e-9


class TestReportsAndSweep:
    def test_report_serialization_round_trip(self):
        report = cv.squeezer_four_step(0.1, TEN_DB_R, VAC, seed=5)
        doc = report.to_dict()
        assert doc["channel"]["S"] == [float(v) for v in report.channel.S.ravel()]
        assert doc["target_S"] == [float(v) for v in report.target_S.ravel()]
        assert len(doc["records"]) == 4
        assert {c["name"] for c in doc["checks"]} == {c.name for c in report.checks}

    def test_every_protocol_outcome_independent_at_ten_db(self):
        reports = [
            cv.identity_chain(5, TEN_DB_R, VAC),
            cv.squeezer_four_step(0.2, TEN_DB_R, VAC),
            cv.repeated_squeezer(2, 0.1, TEN_DB_R, VAC),
            cv.offline_teleport(VAC, TEN_DB_R),
            cv.offline_squeezer(VAC, TEN_DB_R, 0.04),
        ]
        for report in reports:
            check = report.check("outcome_independent")
            assert check.passed and check.value <= 1e-9, report.name

    def test_sweep_identity_chain_noise_column(self):
        rows = cv.sweep(
            "identity_chain",
            {"squeezing_db": 10.0, "input_state": VAC},
            "n_nodes",
            [2, 3, 4, 5, 6],
        )
        for row, n in zip(rows, [2, 3, 4, 5, 6]):
            assert row["noise_trace"] == pytest.approx((n - 1) * 0.025, abs=1e-9)

    def test_sweep_squeezer_deviation_scaling(self):
        rows = cv.sweep(
            "squeezer_four_step",
            {"squeezing_db": 100.0, "input_state": VAC},
            "kappa",
            [0.05, 0.1, 0.2],
        )
        deviations = [row["deviation"] for row in rows]
        assert 7.0 <= deviations[1] / deviations[0] <= 9.0
        assert 7.0 <= deviations[2] / deviations[1] <= 9.0

    def test_sweep_teleport_fidelity_column(self):
        rows = cv.sweep(
            "offline_teleport", {"input_state": VAC}, "squeezing_db", [0, 3, 10]
        )
        expected = [1.0 / (1.0 + 10 ** (-db / 10)) for db in (0, 3, 10)]
        for row, value in zip(rows, expected):
            assert row["fidelity"] == pytest.approx(value, abs=1e-6)

    def test_sweep_is_deterministic_given_seed(self):
        args = ("offline_teleport", {"input_state": VAC}, "squeezing_db", [0, 10])
        assert cv.sweep(*args) == cv.sweep(*args)

    def test_sweep_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            cv.sweep("offline_teleport", {}, "squeezing_db", [])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("segments, kappa", [(400, 1.0), (1, 1e200)])
    def test_report_refuses_a_non_finite_channel(self, segments, kappa):
        with pytest.raises(OverflowError, match="overflows"):
            cv.repeated_squeezer(segments, kappa, TEN_DB_R, VAC)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_report_refuses_a_finite_channel_with_infinite_deviation(self):
        kappa = 1e39  # S is about kappa^4 = 1e156, so |S - target|^2 overflows
        channel, _ = cv.chain_channel([cv.StepPlan(k) for k in (kappa, kappa, -kappa, -kappa)], 0.0)
        assert np.isfinite(channel.S).all() and np.isfinite(channel.N).all()
        with pytest.raises(OverflowError, match="overflows"):
            cv.squeezer_four_step(kappa, 0.0, VAC)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            cv.run_named_protocol("bogus", {})

    def test_run_named_protocol_accepts_db(self):
        report = cv.run_named_protocol(
            "identity_chain", {"n_nodes": 3, "squeezing_db": 10.0}, seed=2
        )
        assert report.noise_trace == pytest.approx(2 * 0.025, abs=1e-9)


class TestProtocolStatesPhysical:
    def test_intermediate_and_output_states_satisfy_uncertainty(self):
        for r in (TEN_DB_R, IDEAL):
            cluster = cv.linear_cluster(cv.ClusterSpec(4, r))
            attached = cv.attach_input(VAC, cluster)
            assert cv.uncertainty_defect(cluster) <= 1e-12
            assert cv.uncertainty_defect(attached) <= 1e-12
            steps = [cv.StepPlan(0.2), cv.StepPlan(0.2), cv.StepPlan(-0.2), cv.StepPlan(-0.2)]
            out, _, frame = cv.run_protocol(VAC, steps, r, 11)
            assert cv.uncertainty_defect(out) <= 1e-12
            assert cv.uncertainty_defect(cv.apply_correction(out, frame)) <= 1e-12
            resource = cv.modified_resource(r, cv.squeezer(0.04))
            assert cv.uncertainty_defect(resource) <= 1e-12
            mixed = cv.apply_gate(cv.tensor(VAC, resource), cv.beamsplitter_5050(), [0, 1])
            assert cv.uncertainty_defect(mixed) <= 1e-12


class TestOneEvaluationPerReport:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: cv.identity_chain(5, TEN_DB_R, VAC),
            lambda: cv.squeezer_four_step(0.2, TEN_DB_R, VAC),
            lambda: cv.repeated_squeezer(3, 0.2, TEN_DB_R, VAC),
        ],
        ids=["identity_chain", "squeezer_four_step", "repeated_squeezer"],
    )
    def test_chain_weights_built_once(self, monkeypatch, run):
        calls = []
        corrected_weights = engine._corrected_weights

        def spy(kappas):
            calls.append(kappas.size)
            return corrected_weights(kappas)

        monkeypatch.setattr(engine, "_corrected_weights", spy)
        run()
        assert len(calls) == 1

    @pytest.mark.parametrize("protocol", ["offline_teleport", "offline_squeezer"])
    def test_offline_records_follow_explicit_state(self, protocol):
        # (u, v) = sqrt2 (x_1', p_0') of the input and the modified resource
        # after the teleportation beamsplitter
        r, r_gate = 0.5, 0.3
        state = cv.coherent_state(0.6, -0.9)
        if protocol == "offline_teleport":
            gate, run = cv.squeezer(0.0), lambda seed: cv.offline_teleport(state, r, seed)
        else:
            gate, run = cv.squeezer(r_gate), lambda seed: cv.offline_squeezer(state, r, r_gate, seed)
        mixed = cv.apply_gate(
            cv.tensor(state, cv.modified_resource(r, gate)), cv.beamsplitter_5050(), [0, 1]
        )
        measured = [2, 1]
        mean = math.sqrt(2.0) * mixed.mean[measured]
        L = np.linalg.cholesky(2.0 * mixed.cov[np.ix_(measured, measured)])
        draws = np.array(
            [[rec.rescaled_outcome for rec in run(seed).records[0]] for seed in range(2000)]
        )
        white = np.linalg.solve(L, (draws - mean).T)
        # 2000 draws: standard errors about 0.022 (mean) and 0.032 (variances)
        assert np.max(np.abs(white.mean(axis=1))) < 0.1
        assert np.max(np.abs(np.cov(white) - np.eye(2))) < 0.1


CHAIN_PROTOCOLS = ("identity_chain", "squeezer_four_step", "repeated_squeezer")


class TestOneReportPerDocument:
    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_trials_evaluate_the_map_once(self, monkeypatch, protocol):
        # the chains read their channel through chain_channel, the off-line
        # protocols through _teleportation; three trials draw three sets of
        # records from one evaluation
        spied = "chain_channel" if protocol in CHAIN_PROTOCOLS else "_teleportation"
        original = getattr(protocols, spied)
        calls = []

        def spy(*args, **kwargs):
            calls.append(spied)
            return original(*args, **kwargs)

        monkeypatch.setattr(protocols, spied, spy)
        base = {
            "protocol": protocol,
            "squeezing_db": 10.0,
            "input": {"kind": "coherent", "re": 0.3, "im": -0.8},
            "seed": 40,
        }
        doc = cli.run_document(cli.ExperimentConfig.from_dict({**base, "trials": 3}))
        assert len(calls) == 1
        assert sorted({rec["trial"] for rec in doc["records"]}) == [0, 1, 2]
        for t in range(3):
            single = cli.run_document(cli.ExperimentConfig.from_dict({**base, "seed": 40 + t}))
            expected = [{**rec, "trial": t} for rec in single["records"]]
            assert [rec for rec in doc["records"] if rec["trial"] == t] == expected
            for key in ("channel", "checks", "fidelity", "deviation", "noise_trace"):
                assert doc[key] == single[key], key

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_report_holds_one_record_tuple_per_trial(self, protocol):
        report = cv.run_named_protocol(protocol, {"squeezing_db": 10.0}, seed=3, trials=2)
        assert len(report.records) == 2
        for t, trial in enumerate(report.records):
            alone = cv.run_named_protocol(protocol, {"squeezing_db": 10.0}, seed=3 + t)
            assert trial == alone.records[0]

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_rejects_zero_trials(self, protocol):
        with pytest.raises(ValueError, match="trials"):
            cv.run_named_protocol(protocol, {}, trials=0)


class TestRecordsDrawnWhenRead:
    # the records of a chain are drawn by _chain_records, those of an
    # off-line protocol by _sample_or_force: one call per trial
    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        for name in ("_chain_records", "_sample_or_force"):
            original = getattr(protocols, name)

            def spy(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(protocols, name, spy)
        return calls

    @pytest.mark.parametrize(
        "protocol, param, values",
        [
            ("identity_chain", "n_nodes", [65, 129]),
            ("repeated_squeezer", "segments", [16, 32]),
            ("offline_squeezer", "r_gate", [0.04, 0.3]),
        ],
    )
    def test_sweep_draws_no_records(self, draws, protocol, param, values):
        cfg = cli.ExperimentConfig.from_dict(
            {"protocol": protocol, "squeezing_db": 10.0, "sweep": {"param": param, "values": values}}
        )
        _, rows = cli.sweep_table(cfg)
        assert len(rows) == len(values)
        assert draws == []

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_run_draws_once_per_trial(self, draws, protocol, trials):
        cfg = cli.ExperimentConfig.from_dict(
            {"protocol": protocol, "squeezing_db": 10.0, "trials": trials}
        )
        doc = cli.run_document(cfg)
        name = "_chain_records" if protocol in CHAIN_PROTOCOLS else "_sample_or_force"
        assert draws == [name] * trials
        assert {rec["trial"] for rec in doc["records"]} == set(range(trials))

    def test_records_are_drawn_once_however_often_read(self, draws):
        report = cv.run_named_protocol("identity_chain", {"squeezing_db": 10.0}, trials=3)
        assert draws == []
        first = report.records
        assert report.records is first
        assert draws == ["_chain_records"] * 3

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_two_mode_input_is_refused_when_built(self, draws, protocol):
        with pytest.raises(ValueError, match="single-mode"):
            cv.run_named_protocol(protocol, {"input_state": cv.vacuum_state(2)})

    @pytest.mark.parametrize("read_before_pickling", [False, True])
    @pytest.mark.parametrize("protocol", ["repeated_squeezer", "offline_squeezer"])
    def test_pickled_report_gives_the_same_records(self, protocol, read_before_pickling):
        report = cv.run_named_protocol(protocol, {"squeezing_db": 10.0}, seed=11, trials=2)
        if read_before_pickling:
            report.records
        copy = pickle.loads(pickle.dumps(report))
        assert copy.records == report.records
        assert copy.to_dict() == report.to_dict()


class TestFrameRuleOncePerReport:
    @pytest.mark.parametrize(
        "protocol, params, k",
        [
            ("identity_chain", {"n_nodes": 5}, 4),
            ("squeezer_four_step", {}, 4),
            ("repeated_squeezer", {"segments": 1}, 4),
            ("identity_chain", {"n_nodes": 129}, 128),
            ("repeated_squeezer", {"segments": 32}, 128),
        ],
    )
    @pytest.mark.parametrize("trials", [1, 3])
    def test_one_update_frame_call_per_chain_report(self, monkeypatch, protocol, params, k, trials):
        # the channel evaluates the frame rule once over all steps, and the
        # records are drawn without folding a frame that the report discards
        calls = []
        original = engine.update_frame

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine, "update_frame", spy)
        report = cv.run_named_protocol(
            protocol, {"squeezing_db": 10.0, **params}, seed=5, trials=trials
        )
        assert len(calls) == 1
        assert [len(trial) for trial in report.records] == [k] * trials


class TestProtocolTable:
    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_table_parameters_reach_the_builder(self, protocol):
        # each listed parameter, set away from its default, shows up in the
        # report's parameters (off-line squeezer: r_gate) or its channel
        builder, names = protocols.PROTOCOLS[protocol]
        changed = {"n_nodes": 3, "segments": 2, "kappa": 0.35, "r_gate": 0.3}
        default = cv.run_named_protocol(protocol, {"squeezing_db": 10.0})
        for name in names:
            report = cv.run_named_protocol(protocol, {"squeezing_db": 10.0, name: changed[name]})
            assert not np.array_equal(report.channel.S, default.channel.S), name
        direct = builder(
            r=TEN_DB_R,
            input_state=VAC,
            **{name: protocols.PARAMETER_DEFAULTS[name] for name in names},
        )
        np.testing.assert_array_equal(direct.channel.S, default.channel.S)


class TestMatrixCheckBounds:
    def test_segment_power_check_fails_for_relative_error_at_large_S(self, monkeypatch):
        # kappa = 1 and 50 segments give |S| = 5.7e20: the check is held to
        # the rounding of a 200-step chain, far below a relative 1e-6 of S
        chain_channel = protocols.chain_channel
        assert cv.repeated_squeezer(50, 1.0, TEN_DB_R, VAC).check(
            "matches_exact_segment_power"
        ).passed

        def skewed(steps, r):
            channel, leak = chain_channel(steps, r)
            return cv.GaussianChannel(channel.S * (1.0 + 1e-6), channel.N, channel.d), leak

        monkeypatch.setattr(protocols, "chain_channel", skewed)
        report = cv.repeated_squeezer(50, 1.0, TEN_DB_R, VAC)
        assert not report.check("matches_exact_segment_power").passed


def _flipped_frame_sign(frame, s, kappa):
    return cv.ByproductFrame(s - kappa * frame.u + frame.v, frame.u)


class TestChannelFromAffineMap:
    def test_flipped_frame_sign_fails_outcome_independence(self, monkeypatch):
        # a wrong frame rule leaves weight on the anti-squeezed resource
        # quadratures, which the check reads off the protocol's map
        monkeypatch.setattr(engine, "update_frame", _flipped_frame_sign)
        report = cv.squeezer_four_step(0.2, cv.db_to_squeezing_r(100.0), VAC)
        check = report.check("outcome_independent")
        assert not check.passed
        assert check.value == pytest.approx(2.0)

    def test_flipped_frame_sign_fails_verify_rows(self, monkeypatch):
        monkeypatch.setattr(engine, "update_frame", _flipped_frame_sign)
        rows = {row.name: row for row in checks.outcome_independence_checks()}
        for name in ("identity_chain_ideal", "identity_chain_10db", "squeezer_ideal", "squeezer_10db"):
            assert not rows[f"outcome_independent_{name}"].passed, name

    def test_cli_run_at_300_db_matches_step_budget(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"protocol": "squeezer_four_step", "squeezing_db": 300}))
        out = tmp_path / "result.json"
        assert cli.main(["run", str(config), "--output", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        kappa = 0.2  # the config default
        _, N = step_noise_oracle([kappa, kappa, -kappa, -kappa], cv.db_to_squeezing_r(300.0))
        assert doc["noise_trace"] == pytest.approx(np.trace(N), rel=1e-9)
        n00, n01, n11 = doc["channel"]["N"]
        assert np.linalg.eigvalsh([[n00, n01], [n01, n11]])[0] >= 0.0
        assert all(c["passed"] for c in doc["checks"])

    @settings(max_examples=80, deadline=None)
    @given(
        protocol=st.sampled_from(["identity_chain", "squeezer_four_step", "repeated_squeezer"]),
        db=st.floats(0.0, 300.0),
        kappa=st.floats(-1.0, 1.0),
        k=st.integers(1, 200),
    )
    def test_report_channel_matches_recursion_oracle(self, protocol, db, kappa, k):
        r = cv.db_to_squeezing_r(db)
        if protocol == "identity_chain":
            report = cv.identity_chain(k + 1, r, VAC)
            kappas = [0.0] * k
        elif protocol == "squeezer_four_step":
            report = cv.squeezer_four_step(kappa, r, VAC)
            kappas = [kappa, kappa, -kappa, -kappa]
        else:
            segments = max(1, k // 4)
            report = cv.repeated_squeezer(segments, kappa, r, VAC)
            kappas = [kappa, kappa, -kappa, -kappa] * segments
        S, N = step_noise_oracle(kappas, r)

        def scale(a):
            return float(np.max(np.abs(a)))

        assert scale(report.channel.S - S) <= 1e-9 * scale(S)
        assert scale(report.channel.N - N) <= 1e-9 * scale(N)
        assert report.noise_trace == pytest.approx(float(np.trace(N)), rel=1e-9)
        assert np.array_equal(report.channel.d, np.zeros(2))
        check = report.check("outcome_independent")
        assert check.passed and check.value <= protocols.INDEPENDENCE_TOL
        # the checks' bounds follow the scale of S and N
        assert report.all_passed(), [c for c in report.checks if not c.passed]


def _cluster_runner(steps, r):
    def run(state, seed):
        out, _, frame = cv.run_protocol(state, steps, r, seed)
        return cv.apply_correction(out, frame)

    return run


def _offline_moments(state, r, gate_S, gain_applied):
    """Corrected output rows M, the applied-minus-true gain D, and the
    initial moments of the off-line teleporter: the input beside a
    p-squeezed and an x-squeezed vacuum, then beamsplitter, gate on mode 2,
    beamsplitter, with (u, v) = sqrt2 (x_1', p_0')."""
    product = cv.tensor(state, cv.tensor(cv.squeezed_vacuum(r, "p"), cv.squeezed_vacuum(r, "x")))
    bs = cv.beamsplitter_5050().S
    S_big = (
        cv.embed_symplectic(bs, [0, 1], 3)
        @ cv.embed_symplectic(gate_S, [2], 3)
        @ cv.embed_symplectic(bs, [1, 2], 3)
    )
    uv_rows = math.sqrt(2.0) * np.vstack([S_big[2], S_big[1]])
    M = S_big[4:6] + gate_S @ uv_rows
    return product.mean, product.cov, uv_rows, M, gain_applied - gate_S


def _offline_runner(r, gate_S):
    """A seeded corrected run: draw (u, v), then apply the rescaled gain."""

    def run(state, seed):
        mu0, cov0, uv_rows, M, D = _offline_moments(state, r, gate_S, gate_S)
        rng = np.random.Generator(np.random.PCG64(seed))
        uv_cov = uv_rows @ cov0 @ uv_rows.T
        uv = uv_rows @ mu0 + np.linalg.cholesky(uv_cov) @ rng.standard_normal(2)
        cov = M @ cov0 @ M.T
        return cv.GaussianState(M @ mu0 + D @ uv, 0.5 * (cov + cov.T))

    return run


def _conditioned_state_channel(r, r_gate, rescale_correction):
    """Channel of the off-line squeezer read off the explicit three-mode state.

    The input joins ``cluster.modified_resource`` at the beamsplitter; the
    output mode is conditioned on the measured (x_1', p_0') by the Gaussian
    rule, and the correction (mode 2 displaced by gain (u, v), with
    (u, v) = sqrt2 (x_1', p_0')) is averaged over the outcomes by the law of
    total variance. Also returns the largest entry of the state's
    covariance: the oracle works at that scale and resolves N only to
    rounding of it.
    """
    gate = cv.squeezer(r_gate)
    gain = math.sqrt(2.0) * (gate.S if rescale_correction else np.eye(2))
    measured, out = [2, 1], [4, 5]

    def moments(state):
        mixed = cv.apply_gate(
            cv.tensor(state, cv.modified_resource(r, gate)), cv.beamsplitter_5050(), [0, 1]
        )
        mu, cov = mixed.mean, mixed.cov
        cov_mm = cov[np.ix_(measured, measured)]
        cov_om = cov[np.ix_(out, measured)]
        regression = cov_om @ np.linalg.inv(cov_mm)  # of out on m
        conditional = cov[np.ix_(out, out)] - regression @ cov_om.T
        spread = regression + gain  # outcome dependence of the corrected conditional mean
        total = conditional + spread @ cov_mm @ spread.T
        return mu[out] + gain @ mu[measured], 0.5 * (total + total.T), float(np.max(np.abs(cov)))

    m_vac, c_vac, scale = moments(VAC)
    m_x, _, _ = moments(cv.coherent_state(1.0, 0.0))
    m_p, _, _ = moments(cv.coherent_state(0.0, 1.0))
    S = np.column_stack([m_x - m_vac, m_p - m_vac])
    N = c_vac - 0.25 * S @ S.T
    return cv.GaussianChannel(S=S, N=0.5 * (N + N.T), d=m_vac), scale


class TestChannelAgreesWithTomography:
    @pytest.mark.parametrize(
        "name",
        [
            "identity_chain",
            "squeezer_four_step",
            "repeated_squeezer",
            "offline_teleport",
            "offline_squeezer",
            "offline_squeezer_unscaled",
        ],
    )
    def test_ten_db(self, name):
        r, r_gate = TEN_DB_R, 0.04
        squeezer_steps = [cv.StepPlan(k) for k in (0.2, 0.2, -0.2, -0.2)]
        repeated_steps = [cv.StepPlan(k) for k in (0.1, 0.1, -0.1, -0.1)] * 2
        if name == "identity_chain":
            report = cv.identity_chain(5, r, VAC)
            expected = channel_tomography(_cluster_runner([cv.StepPlan(0.0)] * 4, r))
        elif name == "squeezer_four_step":
            report = cv.squeezer_four_step(0.2, r, VAC)
            expected = channel_tomography(_cluster_runner(squeezer_steps, r))
        elif name == "repeated_squeezer":
            report = cv.repeated_squeezer(2, 0.1, r, VAC)
            expected = channel_tomography(_cluster_runner(repeated_steps, r))
        elif name == "offline_teleport":
            report = cv.offline_teleport(VAC, r)
            expected = channel_tomography(_offline_runner(r, np.eye(2)))
        elif name == "offline_squeezer":
            report = cv.offline_squeezer(VAC, r, r_gate)
            expected = channel_tomography(_offline_runner(r, cv.squeezer(r_gate).S))
        else:
            report = cv.offline_squeezer(VAC, r, r_gate, rescale_correction=False)
            expected, _ = _conditioned_state_channel(r, r_gate, rescale_correction=False)
        np.testing.assert_allclose(report.channel.S, expected.S, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.channel.N, expected.N, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.channel.d, expected.d, rtol=0, atol=1e-12)


def _max_abs(a):
    return float(np.max(np.abs(a)))


class TestOfflineChannelAgreesWithExplicitState:
    @pytest.mark.parametrize("rescale_correction", [True, False])
    @pytest.mark.parametrize("db", [0.0, 10.0, 50.0])
    @pytest.mark.parametrize("r_gate", [0.04, 0.3])
    def test_matches_conditioned_state(self, rescale_correction, db, r_gate):
        # the control's channel is the outcome-averaged one, with the
        # covariance between the matched-gain output and the residual
        # displacement included
        r = cv.db_to_squeezing_r(db)
        report = cv.offline_squeezer(VAC, r, r_gate, rescale_correction=rescale_correction)
        expected, state_scale = _conditioned_state_channel(r, r_gate, rescale_correction)
        assert _max_abs(report.channel.S - expected.S) <= 1e-12 * _max_abs(expected.S)
        n_scale = max(_max_abs(expected.N), state_scale)
        assert _max_abs(report.channel.N - expected.N) <= 1e-12 * n_scale
        assert _max_abs(report.channel.d - expected.d) <= 1e-12

    @pytest.mark.parametrize("db", [150.0, 200.0])
    def test_teleport_noise_follows_resource_at_high_squeezing(self, db):
        r = cv.db_to_squeezing_r(db)
        expected = 0.5 * math.exp(-2 * r) * np.eye(2)
        report = cv.offline_teleport(VAC, r)
        assert _max_abs(report.channel.N - expected) <= 1e-9 * _max_abs(expected)
        assert report.all_passed()
