import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvcluster as cv
from cvcluster import algebra, checks, cli, cluster, engine, protocols
from conftest import patch_squeezed_variance, step_noise_oracle
from explicit_states import modified_resource, offline_circuit
from measurement_picture import apply_correction
from reference import readings_law_reference, report_facts
from tomography import channel_tomography

IDEAL = cv.IDEAL_SQUEEZING_R
TEN_DB_R = math.log(10.0) / 2.0
VAC = cv.vacuum_state(1)


class TestIdentityChain:
    def test_two_modes_ideal_is_single_fourier(self):
        report = cv.identity_chain(2, IDEAL, VAC)
        np.testing.assert_allclose(report.channel.S, cv.fourier(), atol=1e-9)
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
        assert report.channel.apply(VAC).cov[0, 0] == pytest.approx(expected, abs=1e-6)

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

    @pytest.mark.parametrize(
        "state", [VAC, cv.coherent_state(0.4, -1.2), cv.squeezed_vacuum(0.7, "p")]
    )
    def test_output_variances_are_the_channels_image_of_the_input(self, state):
        # numpy's matmul may fuse a multiply-add, so apply's variances are held to
        # the 60-digit image within its bound, not to its bits
        report = cv.squeezer_four_step(0.3, TEN_DB_R, state)
        out = report.channel.apply(state)
        channel = [a.tolist() for a in (report.channel.S, report.channel.N)]
        facts = report_facts(*channel, (0.0, 0.0), report.target_S.tolist(), np.eye(2).tolist(),
                             state.mean.tolist(), state.cov.tolist())
        for name, i in (("var_x", 0), ("var_p", 1)):
            assert facts[name].holds(out.cov[i, i])


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

    @pytest.mark.parametrize("r", [0.0, 0.3, TEN_DB_R, 3.0, IDEAL])
    def test_vacuum_check_reads_the_reports_fidelity(self, r):
        report = cv.offline_teleport(VAC, r)
        expected = abs(report.fidelity - 1.0 / (1.0 + math.exp(-2 * r)))
        assert report.check("vacuum_fidelity_matches_closed_form").value == expected

    def test_mixed_input_near_vacuum_has_no_fidelity_and_no_vacuum_check(self):
        # within np.allclose of the vacuum, but not pure to the 1e-9 the
        # fidelity needs of its ideal output, which is the input itself
        mixed = cv.GaussianState(np.zeros(2), 0.25 * (1 + 1e-6) * np.eye(2))
        report = cv.offline_teleport(mixed, TEN_DB_R)
        assert report.fidelity is None
        assert "vacuum_fidelity_matches_closed_form" not in {c.name for c in report.checks}

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


def _below_the_resource_floor(N, r):
    """The smaller eigenvalue of N / v - I, v = e^{-2r}/4 the noise of one
    squeezed resource quadrature, and the channel_noise_psd check's bound at
    the scale of N / v."""
    scaled = N / (math.exp(-2 * r) * cv.VACUUM_VARIANCE)
    lam = float(np.linalg.eigvalsh(scaled - np.eye(2))[0])
    return lam, protocols._bound(protocols.NOISE_PSD_TOL, _max_abs(scaled))


class TestNoChainSqueezesMoreThanItsResource:
    """A(kappa) e_p = -e_x for a step's map A, so the last two steps'
    injections alone give N >= (e^{-2r}/4) I for every chain of k >= 2 steps.
    The off-line squeezer's noise (e^{-2r}/2) G G^T is squeezed by its gate G
    and goes below that floor once |r_gate| > ln(2)/2: the paper's contrast
    between cluster and off-line gates."""

    @settings(max_examples=80, deadline=None)
    @given(
        kappas=st.lists(
            st.floats(-1.5, 1.5) | st.sampled_from([0.0, 1.0, -1.0, 1.5, -1.5]),
            min_size=2,
            max_size=40,
        ),
        db=st.floats(0.0, 300.0),
    )
    def test_chain_noise_is_at_least_the_resources(self, kappas, db):
        r = cv.db_to_squeezing_r(db)
        channel, _ = cv.chain_channel(kappas, r)
        lam, bound = _below_the_resource_floor(channel.N, r)
        assert lam >= -bound

    @pytest.mark.parametrize("r_gate", [0.0, 0.2, 0.34, 0.35, 0.6, 2.0, -0.35, -2.0])
    def test_offline_squeezer_goes_below_the_floor_past_half_ln_2(self, r_gate):
        report = cv.offline_squeezer(VAC, TEN_DB_R, r_gate)
        lam, bound = _below_the_resource_floor(report.channel.N, TEN_DB_R)
        # N / v - I = diag(2 e^{-2 r_gate} - 1, 2 e^{2 r_gate} - 1)
        assert lam == pytest.approx(2 * math.exp(-2 * abs(r_gate)) - 1, abs=1e-12)
        assert (lam < -bound) == (abs(r_gate) > math.log(2) / 2)


class TestReportsAndSweep:
    @pytest.mark.parametrize(
        "protocol, params, records",
        [
            ("squeezer_four_step", {"kappa": 0.1, "squeezing_db": 10.0}, 4),
            # each of these has a check whose bound is its rounding term: the run
            # document writes the checks as they are held, and json refuses a numpy bool
            ("repeated_squeezer", {"kappa": 1.0, "segments": 50}, 200),
            ("squeezer_four_step", {"kappa": 30.0, "squeezing_db": 0.0}, 4),
            ("offline_squeezer", {"r_gate": 354.0}, 2),
        ],
    )
    def test_report_serialization_round_trip(self, protocol, params, records):
        cfg = cli.ExperimentConfig.from_dict({"protocol": protocol, **params, "seed": 5})
        report = cv.run_named_protocol(protocol, params, seed=5)
        doc = json.loads(cli.run_document(cfg))
        assert doc["channel"]["S"] == report.channel.S.ravel().tolist()
        (n_xx, n_xp), (_, n_pp) = report.channel.N.tolist()
        assert doc["channel"]["N"] == [n_xx, n_xp, n_pp]
        assert doc["target_S"] == report.target_S.ravel().tolist()
        assert [len(trial.step_index) for trial in report.record_columns] == [records]
        assert len(doc["records"]) == records
        assert doc["checks"] == [c._asdict() for c in report.checks]

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

    def test_sweep_refuses_a_bad_grid_before_any_point_runs(self, monkeypatch):
        def refuse(**_):
            raise AssertionError("a point of a refused grid ran")

        monkeypatch.setitem(protocols.PROTOCOLS, "identity_chain", (refuse, ("n_nodes",)))
        with pytest.raises(cli.ConfigError) as refused:
            cv.sweep("identity_chain", {}, "n_nodes", [100001, "x"])
        assert str(refused.value) == "field 'sweep.values[1]': expected int, got a string"

    def test_overflow_refusals_are_config_and_overflow_errors(self):
        for error in (protocols.ChannelOverflowError, cv.InputOverflowError):
            assert issubclass(error, cli.ConfigError) and issubclass(error, OverflowError)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("segments, kappa", [(400, 1.0), (1, 1e200)])
    def test_report_refuses_a_non_finite_channel(self, segments, kappa):
        with pytest.raises(OverflowError, match="overflows"):
            cv.repeated_squeezer(segments, kappa, TEN_DB_R, VAC)

    @pytest.mark.filterwarnings("error")
    def test_report_refuses_a_finite_channel_with_infinite_deviation(self):
        kappa = 1e39  # S is about kappa^4 = 1e156, so |S - target|^2 overflows
        channel, _ = cv.chain_channel([kappa, kappa, -kappa, -kappa], 0.0)
        assert np.isfinite(channel.S).all() and np.isfinite(channel.N).all()
        with pytest.raises(OverflowError, match="overflows"):
            cv.squeezer_four_step(kappa, 0.0, VAC)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            cv.run_named_protocol("bogus", {})
        with pytest.raises(ValueError, match="unknown protocol"):
            cv.sweep("bogus", {}, "squeezing_db", [10.0])

    def test_run_named_protocol_refuses_an_unknown_parameter(self):
        with pytest.raises(cli.ConfigError, match="^unknown config field 'kapa'$"):
            cv.run_named_protocol("squeezer_four_step", {"kapa": 0.5})

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    @pytest.mark.parametrize("param", [*protocols.PARAMETER_DEFAULTS, "input_state", "seed"])
    def test_sweep_refuses_what_the_cli_refuses(self, protocol, param):
        # one rule, protocols.checked_sweep, for the library and the CLI
        value = protocols.PARAMETER_DEFAULTS.get(param, 1)
        payload = {"protocol": protocol, "sweep": {"param": param, "values": [value]}}
        if param in protocols.protocol_parameters(protocol):
            cli.ExperimentConfig.from_dict(payload)
            assert len(cv.sweep(protocol, {}, param, [value])) == 1
            return
        if param in protocols.PARAMETER_DEFAULTS:
            expected = f"field 'sweep.param': protocol {protocol!r} does not read {param!r}"
        else:
            expected = f"field 'sweep.param': cannot sweep {param!r}"
        for call in (
            lambda: cli.ExperimentConfig.from_dict(payload),
            lambda: cv.sweep(protocol, {}, param, [value]),
        ):
            with pytest.raises(cli.ConfigError) as refused:
                call()
            assert str(refused.value) == expected

    @pytest.mark.parametrize(
        "payload, library_calls",
        [
            (
                {"protocol": "nope", "sweep": {"param": "squeezing_db", "values": [10.0]}},
                [
                    lambda: cv.run_named_protocol("nope", {}),
                    lambda: cv.protocol_parameters("nope"),
                    lambda: cv.sweep("nope", {}, "squeezing_db", [10.0]),
                ],
            ),
            (
                {"protocol": "identity_chain", "sweep": {"param": "kappa", "values": [0.1]}},
                [lambda: cv.sweep("identity_chain", {}, "kappa", [0.1])],
            ),
            (
                {"protocol": "identity_chain", "sweep": {"param": "n_nodes", "values": []}},
                [lambda: cv.sweep("identity_chain", {}, "n_nodes", [])],
            ),
            (
                {"protocol": "identity_chain", "sweep": {"param": "seed", "values": [1]}},
                [lambda: cv.sweep("identity_chain", {}, "seed", [1])],
            ),
            (
                {"protocol": "identity_chain", "sweep": {"param": "n_nodes", "values": [3, "x"]}},
                [lambda: cv.sweep("identity_chain", {}, "n_nodes", [3, "x"])],
            ),
            (
                {"protocol": "squeezer_four_step", "kapa": 0.5},
                [
                    lambda: cv.run_named_protocol("squeezer_four_step", {"kapa": 0.5}),
                    lambda: cv.sweep("squeezer_four_step", {"kapa": 0.5}, "kappa", [0.1]),
                ],
            ),
            (
                {
                    "protocol": "repeated_squeezer", "kappa": 1e200,
                    "sweep": {"param": "kappa", "values": [0.1, 1e200]},
                },
                [
                    lambda: cv.run_named_protocol("repeated_squeezer", {"kappa": 1e200}),
                    lambda: cv.sweep("repeated_squeezer", {}, "kappa", [0.1, 1e200]),
                ],
            ),
            (
                {
                    "protocol": "squeezer_four_step", "kappa": 1e200,
                    "sweep": {"param": "kappa", "values": [0.1, 1e200]},
                },
                [
                    lambda: cv.run_named_protocol("squeezer_four_step", {"kappa": 1e200}),
                    lambda: cv.sweep("squeezer_four_step", {}, "kappa", [0.1, 1e200]),
                ],
            ),
        ],
        ids=[
            "unknown_protocol", "unread_sweep_param", "empty_sweep_values", "unsweepable_param",
            "bad_sweep_value", "unknown_key", "repeated_kappa_overflow",
            "four_step_kappa_overflow",
        ],
    )
    # numpy's overflow warnings are errors: the library refuses before any warning escapes
    @pytest.mark.filterwarnings("error")
    def test_library_refuses_with_the_clis_line(self, tmp_path, capsys, payload, library_calls):
        # one statement of each rule: the library's text is the CLI's line without "error: "
        assert cli.ConfigError is protocols.ConfigError
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        for command in ("run", "sweep"):
            assert cli.main([command, str(config), "--output", str(tmp_path / "out")]) == 2
            line = capsys.readouterr().err
            for call in library_calls:
                with pytest.raises(cli.ConfigError) as refused:
                    call()
                assert f"error: {refused.value}\n" == line
        assert not (tmp_path / "out").exists()

    # at r_gate 354.8 the off-line weights' W W^T overflows, but N does not
    @pytest.mark.filterwarnings("error")
    def test_library_gives_the_clis_document_near_the_r_gate_limit(self, tmp_path, capsys):
        payload = {
            "protocol": "offline_squeezer", "r_gate": 354.8,
            "sweep": {"param": "r_gate", "values": [0.1, 354.8]},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        for command in ("run", "sweep"):
            assert cli.main([command, str(config), "--output", str(tmp_path / command)]) == 0
            assert capsys.readouterr().err == ""
        cfg = cli.ExperimentConfig.from_dict(payload)
        assert (tmp_path / "run").read_text() == cli.run_document(cfg)
        report = cv.run_named_protocol("offline_squeezer", {"r_gate": 354.8})
        assert report.all_passed()
        rows = cv.sweep("offline_squeezer", {}, "r_gate", [0.1, 354.8])
        assert [row["checks_passed"] for row in rows] == [True, True]
        assert rows[1]["noise_trace"] == report.noise_trace

    def test_run_named_protocol_accepts_db(self):
        report = cv.run_named_protocol(
            "identity_chain", {"n_nodes": 3, "squeezing_db": 10.0}, seed=2
        )
        assert report.noise_trace == pytest.approx(2 * 0.025, abs=1e-9)


class TestProtocolStatesPhysical:
    def test_intermediate_and_output_states_satisfy_uncertainty(self):
        for r in (TEN_DB_R, IDEAL):
            cluster = cv.linear_cluster(4, r)
            attached = cv.attach_input(VAC, cluster)
            assert cv.uncertainty_defect(cluster) <= 1e-12
            assert cv.uncertainty_defect(attached) <= 1e-12
            steps = [cv.StepPlan(0.2), cv.StepPlan(0.2), cv.StepPlan(-0.2), cv.StepPlan(-0.2)]
            out, _, frame = cv.run_protocol(VAC, steps, r, 11)
            assert cv.uncertainty_defect(out) <= 1e-12
            assert cv.uncertainty_defect(apply_correction(out, frame)) <= 1e-12
            resource = modified_resource(r, cv.squeezer(0.04))
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

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_report_calls_no_linear_algebra_and_builds_no_state(self, monkeypatch, protocol):
        # a report reads its facts off the channel in closed-form 2x2 arithmetic;
        # the input is the vacuum, so offline_teleport also makes its vacuum check
        def refuse(name):
            def refused(*args, **kwargs):
                raise AssertionError(f"a report called {name}")
            return refused

        for name in ("det", "solve", "eigvalsh", "norm"):
            monkeypatch.setattr(np.linalg, name, refuse(f"np.linalg.{name}"))
        monkeypatch.setattr(engine.GaussianChannel, "apply", refuse("GaussianChannel.apply"))
        monkeypatch.setattr(cv.GaussianState, "__post_init__", refuse("GaussianState"))
        report = cv.run_named_protocol(protocol, {"squeezing_db": 10.0, "input_state": VAC})
        assert report.fidelity is not None
        if protocol == "offline_teleport":
            assert report.check("vacuum_fidelity_matches_closed_form").passed

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
            cv.tensor(state, modified_resource(r, gate)), cv.beamsplitter_5050(), [0, 1]
        )
        measured = [2, 1]
        mean = math.sqrt(2.0) * mixed.mean[measured]
        L = np.linalg.cholesky(2.0 * mixed.cov[np.ix_(measured, measured)])
        draws = np.array(
            [run(seed).record_columns[0].rescaled_outcome for seed in range(2000)]
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
        # protocols through affine_channel; three trials draw three sets of
        # records from one evaluation
        spied = "chain_channel" if protocol in CHAIN_PROTOCOLS else "affine_channel"
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
        doc = json.loads(cli.run_document(cli.ExperimentConfig.from_dict({**base, "trials": 3})))
        assert len(calls) == 1
        assert sorted({rec["trial"] for rec in doc["records"]}) == [0, 1, 2]
        for t in range(3):
            single = json.loads(
                cli.run_document(cli.ExperimentConfig.from_dict({**base, "seed": 40 + t}))
            )
            expected = [{**rec, "trial": t} for rec in single["records"]]
            assert [rec for rec in doc["records"] if rec["trial"] == t] == expected
            for key in ("channel", "checks", "fidelity", "deviation", "noise_trace"):
                assert doc[key] == single[key], key

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_report_holds_one_record_tuple_per_trial(self, protocol):
        report = cv.run_named_protocol(protocol, {"squeezing_db": 10.0}, seed=3, trials=2)
        assert len(report.record_columns) == 2
        for t, trial in enumerate(report.record_columns):
            alone = cv.run_named_protocol(protocol, {"squeezing_db": 10.0}, seed=3 + t)
            assert trial == alone.record_columns[0]

    @pytest.mark.parametrize(
        "build, steps",
        [
            (lambda state, seed: cv.identity_chain(4, TEN_DB_R, state, seed), [0.0] * 3),
            (
                lambda state, seed: cv.repeated_squeezer(2, 0.3, TEN_DB_R, state, seed),
                [0.3, 0.3, -0.3, -0.3] * 2,
            ),
        ],
        ids=["identity_chain", "repeated_squeezer"],
    )
    def test_run_protocol_draws_the_reports_records(self, build, steps):
        state = cv.coherent_state(0.7, -0.2)
        report = build(state, 12)
        _, columns, _ = cv.run_protocol(state, [cv.StepPlan(k) for k in steps], TEN_DB_R, 12)
        assert columns == report.record_columns[0]

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_rejects_zero_trials(self, protocol):
        with pytest.raises(ValueError, match="trials"):
            cv.run_named_protocol(protocol, {}, trials=0)

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_builder_rejects_zero_trials(self, protocol):
        # the builder's own precondition, which run_named_protocol's rule keeps a config from
        builder, names = protocols.PROTOCOLS[protocol]
        args = {name: protocols.PARAMETER_DEFAULTS[name] for name in names}
        with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
            builder(r=TEN_DB_R, input_state=VAC, seed=0, trials=0, **args)


class TestRecordsDrawnWhenRead:
    # a sampled trial draws from the generator that phase_space._generator
    # makes of its seed, a chain's in engine and an off-line protocol's in
    # protocols: one call per trial
    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        original = engine._generator

        def spy(outcome_source):
            calls.append(outcome_source)
            return original(outcome_source)

        for module in (engine, protocols):
            monkeypatch.setattr(module, "_generator", spy)
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
        text, _ = cli._sweep_output(cfg, quiet=True)
        assert len(text.splitlines()) == 1 + len(values)
        assert draws == []

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_run_draws_once_per_trial(self, draws, protocol, trials):
        cfg = cli.ExperimentConfig.from_dict(
            {"protocol": protocol, "squeezing_db": 10.0, "trials": trials}
        )
        doc = json.loads(cli.run_document(cfg))
        assert draws == list(range(trials))
        assert {rec["trial"] for rec in doc["records"]} == set(range(trials))

    def test_records_are_drawn_once_however_often_read(self, draws):
        report = cv.run_named_protocol("identity_chain", {"squeezing_db": 10.0}, trials=3)
        with pytest.raises(AttributeError):
            report.records  # the columns are the one record property
        assert draws == []
        first = report.record_columns
        assert report.record_columns is first
        assert draws == [0, 1, 2]

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_seed_free_draw_work_is_done_once_per_report(self, monkeypatch, protocol):
        # the measurement basis and the Cholesky factors (the chain's input,
        # the off-line readings' law) are the same for every trial
        calls = []
        for module, name in (
            (engine, "measurement_basis"),
            (engine, "pair_sampler"),
            (protocols, "pair_sampler"),
        ):
            original = getattr(module, name)

            def spy(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, spy)
        report = cv.run_named_protocol(protocol, {"squeezing_db": 10.0}, trials=3)
        report.record_columns
        chain = protocol in CHAIN_PROTOCOLS
        expected = ["measurement_basis", "pair_sampler"] if chain else ["pair_sampler"]
        assert sorted(calls) == expected

    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_two_mode_input_is_refused_when_built(self, draws, protocol):
        with pytest.raises(ValueError, match="single-mode"):
            cv.run_named_protocol(protocol, {"input_state": cv.vacuum_state(2)})

    @pytest.mark.parametrize("read_before_pickling", [False, True])
    @pytest.mark.parametrize("protocol", ["repeated_squeezer", "offline_squeezer"])
    def test_pickled_report_gives_the_same_records(self, protocol, read_before_pickling):
        report = cv.run_named_protocol(protocol, {"squeezing_db": 10.0}, seed=11, trials=2)
        if read_before_pickling:
            report.record_columns
        copy = pickle.loads(pickle.dumps(report))
        assert copy.record_columns == report.record_columns
        assert copy == report  # every field, the arrays elementwise


def _identity_report():
    return cv.identity_chain(3, 1.0, cv.vacuum_state(1))


class TestReportEquality:
    def test_distinct_equal_reports_compare_equal(self):
        a, b = _identity_report(), _identity_report()
        assert a is not b and a.target_S is not b.target_S
        assert a == b and not a != b

    def test_the_record_draw_is_not_compared(self):
        report = _identity_report()
        assert dataclasses.replace(report, draw_records=lambda: ()) == report

    @pytest.mark.parametrize(
        "change",
        [
            {"target_S": np.eye(2)},
            {"channel": cv.GaussianChannel(np.eye(2), np.zeros((2, 2)))},
            {"name": "other"},
            {"parameters": {}},
            {"deviation": 1.0},
            {"fidelity": None},
            {"checks": ()},
        ],
        ids=["target_S", "channel", "name", "parameters", "deviation", "fidelity", "checks"],
    )
    def test_a_different_field_compares_unequal(self, change):
        report = _identity_report()
        other = dataclasses.replace(report, **change)
        assert report != other and not report == other

    @pytest.mark.parametrize("other", [None, 1.0, cv.vacuum_state(1)])
    def test_a_non_report_compares_unequal(self, other):
        assert _identity_report() != other

    def test_stays_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(_identity_report())


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
        assert [len(trial.raw_outcome) for trial in report.record_columns] == [k] * trials


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


def _named_run(name: str, raw):
    """run_named_protocol with ``raw`` as the parameter, seed or trials ``name``."""
    if name in ("seed", "trials"):
        return cv.run_named_protocol("identity_chain", {}, **{name: raw})
    return cv.run_named_protocol("identity_chain", {name: raw})


class TestOneParameterTable:
    @pytest.mark.parametrize("name", list(protocols.PARAMETERS))
    @pytest.mark.parametrize(
        "raw",
        [True, 2.5, "x", float("nan"), "inf", " 3 ", "1_0", -1, 0, 10**6, [1], 1e9, 3, 4.0],
        ids=repr,
    )
    def test_library_refuses_what_the_cli_refuses(self, monkeypatch, name, raw):
        # one rule, protocols.checked_parameter, with the same text in both;
        # seed and trials are refused at the call, not when records are read,
        # and so are trials that would overfill a run document
        try:
            cfg = cli.ExperimentConfig.from_dict({"protocol": "identity_chain", name: raw})
            cli.run_document(cfg)
        except cli.ConfigError as err:
            def refuse(**kwargs):
                raise AssertionError(f"a refused {name} reached the builder")

            monkeypatch.setitem(protocols.PROTOCOLS, "identity_chain", (refuse, ("n_nodes",)))
            with pytest.raises(ValueError) as refused:
                _named_run(name, raw)
            assert str(refused.value) == str(err)
        else:
            assert _named_run(name, raw).name == "identity_chain"

    @pytest.mark.parametrize("name", list(protocols.PARAMETERS))
    @pytest.mark.parametrize("raw", [" 3 ", "1_0"])
    def test_a_number_given_as_a_string_is_refused(self, name, raw):
        # int() and float() parse both; "1_0" would run at 10 dB or 10 nodes
        cast = protocols.PARAMETERS[name].cast.__name__
        with pytest.raises(ValueError) as refused:
            _named_run(name, raw)
        assert str(refused.value) == f"field {name!r}: expected {cast}, got a string"

    def test_library_refuses_trials_that_overfill_a_run_document(self, monkeypatch, capsys, tmp_path):
        # the CLI's record bound and text, checked before any builder runs;
        # two records a trial: 5 * 10^4 trials fill the document exactly
        assert cv.run_named_protocol("identity_chain", {"n_nodes": 3}, trials=5 * 10**4).checks
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"protocol": "identity_chain", "n_nodes": 3, "trials": 10**6}))
        assert cli.main(["run", str(config), "--output", str(tmp_path / "out"), "--quiet"]) == 2
        error = capsys.readouterr().err

        def refuse(**kwargs):
            raise AssertionError("an oversized run reached the builder")

        monkeypatch.setitem(protocols.PROTOCOLS, "identity_chain", (refuse, ("n_nodes",)))
        with pytest.raises(ValueError) as refused:
            cv.run_named_protocol("identity_chain", {"n_nodes": 3}, trials=10**6)
        assert error == f"error: {refused.value}\n"
        assert str(refused.value).startswith("field 'trials': 1000000 trials write 2000000 records")

    @pytest.mark.parametrize("db", [float("nan"), float("inf"), -1.0])
    def test_db_to_squeezing_r_refuses_a_non_finite_or_negative_db(self, db):
        with pytest.raises(ValueError, match="squeezing_db must be finite and >= 0"):
            cv.db_to_squeezing_r(db)


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
            return cv.GaussianChannel(channel.S * (1.0 + 1e-6), channel.N), leak

        monkeypatch.setattr(protocols, "chain_channel", skewed)
        report = cv.repeated_squeezer(50, 1.0, TEN_DB_R, VAC)
        assert not report.check("matches_exact_segment_power").passed


def _flipped_frame_sign(frame, s, kappa):
    u, v = frame
    return s - kappa * u + v, u


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
        # checks folds the outcomes with its own binding of the correct frame rule
        (row,) = checks.measurement_picture_checks()
        assert row.name == "chain_matches_measurement_picture" and not row.passed

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
        check = report.check("outcome_independent")
        assert check.passed and check.value <= protocols.INDEPENDENCE_TOL
        # the checks' bounds follow the scale of S and N
        assert report.all_passed(), [c for c in report.checks if not c.passed]


def _cluster_runner(steps, r):
    def run(state, seed):
        out, _, frame = cv.run_protocol(state, steps, r, seed)
        return apply_correction(out, frame)

    return run


def _offline_moments(state, r, gate_S, gain_applied):
    """Corrected output rows M, the applied-minus-true gain D, and the
    initial moments of the off-line teleporter: the input beside a
    p-squeezed and an x-squeezed vacuum, then beamsplitter, gate on mode 2,
    beamsplitter, with (u, v) = sqrt2 (x_1', p_0')."""
    product = cv.tensor(state, cv.tensor(cv.squeezed_vacuum(r, "p"), cv.squeezed_vacuum(r, "x")))
    uv_rows, M = offline_circuit(gate_S, gate_S)
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

    The input joins ``explicit_states.modified_resource`` at the beamsplitter; the
    output mode is conditioned on the measured (x_1', p_0') by the Gaussian
    rule, and the correction (mode 2 displaced by gain (u, v), with
    (u, v) = sqrt2 (x_1', p_0')) is averaged over the outcomes by the law of
    total variance. Also returns the displacement, the vacuum's output mean,
    and the largest entry of the state's covariance: the oracle works at
    that scale and resolves N only to rounding of it.
    """
    gate = cv.squeezer(r_gate)
    gain = math.sqrt(2.0) * (gate if rescale_correction else np.eye(2))
    measured, out = [2, 1], [4, 5]

    def moments(state):
        mixed = cv.apply_gate(
            cv.tensor(state, modified_resource(r, gate)), cv.beamsplitter_5050(), [0, 1]
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
    return cv.GaussianChannel(S=S, N=0.5 * (N + N.T)), m_vac, scale


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
            expected, d = channel_tomography(_cluster_runner([cv.StepPlan(0.0)] * 4, r))
        elif name == "squeezer_four_step":
            report = cv.squeezer_four_step(0.2, r, VAC)
            expected, d = channel_tomography(_cluster_runner(squeezer_steps, r))
        elif name == "repeated_squeezer":
            report = cv.repeated_squeezer(2, 0.1, r, VAC)
            expected, d = channel_tomography(_cluster_runner(repeated_steps, r))
        elif name == "offline_teleport":
            report = cv.offline_teleport(VAC, r)
            expected, d = channel_tomography(_offline_runner(r, np.eye(2)))
        elif name == "offline_squeezer":
            report = cv.offline_squeezer(VAC, r, r_gate)
            expected, d = channel_tomography(_offline_runner(r, cv.squeezer(r_gate)))
        else:
            report = cv.offline_squeezer(VAC, r, r_gate, rescale_correction=False)
            expected, d, _ = _conditioned_state_channel(r, r_gate, rescale_correction=False)
        np.testing.assert_allclose(report.channel.S, expected.S, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.channel.N, expected.N, rtol=0, atol=1e-12)
        # the corrected output is undisplaced, as the report's channel has it
        np.testing.assert_allclose(d, np.zeros(2), rtol=0, atol=1e-12)


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
        expected, d, state_scale = _conditioned_state_channel(r, r_gate, rescale_correction)
        assert _max_abs(report.channel.S - expected.S) <= 1e-12 * _max_abs(expected.S)
        n_scale = max(_max_abs(expected.N), state_scale)
        assert _max_abs(report.channel.N - expected.N) <= 1e-12 * n_scale
        assert _max_abs(d) <= 1e-12

    @pytest.mark.parametrize("rescale_correction", [True, False])
    @pytest.mark.parametrize("db", [0.0, 10.0, 100.0, 300.0])
    @pytest.mark.parametrize(
        "r_gate", [0.0, 0.04, -0.04, 0.3, -0.3, 5.0, -5.0, 354.0, -354.0, 354.89, -354.89]
    )
    def test_closed_form_equals_the_three_mode_circuit(
        self, monkeypatch, rescale_correction, db, r_gate
    ):
        # bit for bit, near the r_gate limit too, where the control's channel
        # overflows and is refused after it is read
        read = []

        def spy(*args):
            read.append(engine.affine_channel(*args))
            return read[-1]

        monkeypatch.setattr(protocols, "affine_channel", spy)
        r = cv.db_to_squeezing_r(db)
        try:
            cv.offline_squeezer(VAC, r, r_gate, rescale_correction=rescale_correction)
        except protocols.ChannelOverflowError:
            assert not rescale_correction
        gate = cv.squeezer(r_gate)
        _, rows = offline_circuit(gate, gate if rescale_correction else np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):  # as the builders read it
            expected, expected_leak = engine.affine_channel(
                rows[:, :2], rows[:, [2, 5]], rows[:, [3, 4]], r
            )
        [(channel, leak)] = read
        assert np.array_equal(channel.S, expected.S)
        assert np.array_equal(channel.N, expected.N, equal_nan=True)
        assert leak == expected_leak

    @pytest.mark.parametrize("db", [150.0, 200.0])
    def test_teleport_noise_follows_resource_at_high_squeezing(self, db):
        r = cv.db_to_squeezing_r(db)
        expected = 0.5 * math.exp(-2 * r) * np.eye(2)
        report = cv.offline_teleport(VAC, r)
        assert _max_abs(report.channel.N - expected) <= 1e-9 * _max_abs(expected)
        assert report.all_passed()


# single-mode inputs of the off-line readings' law
LAW_INPUTS = {
    "vacuum": VAC,
    "coherent": cv.coherent_state(0.6, -0.9),
    "x_squeezed": cv.squeezed_vacuum(0.4, "x"),
    "p_squeezed": cv.squeezed_vacuum(0.7, "p"),
    "correlated": cv.GaussianState(np.array([0.3, -0.2]), np.array([[0.6, 0.2], [0.2, 0.2]])),
}


class TestOfflineReadingsLaw:
    @pytest.mark.parametrize("protocol", ["offline_teleport", "offline_squeezer"])
    @pytest.mark.parametrize("db", [0.0, 3.0, 10.0, 50.0, 100.0, 300.0])
    @pytest.mark.parametrize("name", list(LAW_INPUTS))
    def test_law_is_correctly_rounded(self, monkeypatch, name, db, protocol):
        # the law the records are drawn from is the one its Cholesky factor is taken of;
        # the reference is the circuit's readings' law of the code's floats, rounded once
        laws = []
        sampler = protocols.pair_sampler

        def spy(mean, law):
            laws.append(np.array(law, dtype=float))
            return sampler(mean, law)

        monkeypatch.setattr(protocols, "pair_sampler", spy)
        state, r = LAW_INPUTS[name], cv.db_to_squeezing_r(db)
        report = cv.run_named_protocol(protocol, {"squeezing_db": db, "input_state": state}, seed=5)
        report.record_columns
        uv_rows, _ = offline_circuit(report.target_S, report.target_S)
        var_anti, var_squeezed = engine.resource_variances(r)
        cov0 = np.diag([0.0, 0.0, var_anti, var_squeezed, var_squeezed, var_anti])
        cov0[:2, :2] = state.cov
        [law] = laws
        assert law.tolist() == readings_law_reference(uv_rows, cov0)

    def test_law_past_the_largest_float_is_refused_when_read(self):
        # a library input whose x variance plus the readings' e^{2r}/8 passes the largest float
        state = cv.GaussianState(np.zeros(2), np.diag([1.79e308, 1 / (16 * 1.79e308)]))
        report = cv.offline_teleport(state, 354.0)
        with pytest.raises(cv.InputOverflowError, match="an outcome record is not finite"):
            report.record_columns


def _failed_rows_with_homodyne_moved(monkeypatch, mean_shift, cov_shift):
    """The failing ``run_all_checks`` rows once every conditioned state that
    ``verify``'s ``homodyne`` returns has its mean and covariance moved."""
    homodyne = checks.homodyne

    def moved(state, *quad, **kwargs):
        outcome, rest = homodyne(state, *quad, **kwargs)
        return outcome, cv.GaussianState(rest.mean + mean_shift, rest.cov + cov_shift)

    monkeypatch.setattr(checks, "homodyne", moved)
    return [row for row in checks.run_all_checks() if not row.passed]


class TestNamedChecksFailUnderMutation:
    def test_homodyne_mean_off_by_1e_8_fails_the_measurement_picture(self, monkeypatch):
        failed = _failed_rows_with_homodyne_moved(monkeypatch, mean_shift=1e-8, cov_shift=0.0)
        assert [row.name for row in failed] == ["chain_matches_measurement_picture"]
        assert failed[0].value > 1e-10

    def test_homodyne_cov_off_by_1e_8_fails_the_measurement_picture(self, monkeypatch):
        failed = _failed_rows_with_homodyne_moved(monkeypatch, mean_shift=0.0, cov_shift=1e-8)
        assert [row.name for row in failed] == ["chain_matches_measurement_picture"]
        assert failed[0].value > 1e-10

    @pytest.mark.parametrize("protocol", sorted(protocols.PROTOCOLS))
    def test_negative_squeezed_variance_fails_noise_psd(self, monkeypatch, protocol):
        assert cv.run_named_protocol(protocol, {"squeezing_db": 10.0}).check(
            "channel_noise_psd"
        ).passed
        patch_squeezed_variance(monkeypatch, -1.0)
        check = cv.run_named_protocol(protocol, {"squeezing_db": 10.0}).check("channel_noise_psd")
        assert not check.passed
        assert check.value < 0.0

    def test_squeezed_variance_scaled_by_1_01_fails_isotropic_noise(self, monkeypatch):
        assert cv.offline_teleport(VAC, TEN_DB_R).check(
            "noise_is_isotropic_teleportation_noise"
        ).passed
        patch_squeezed_variance(monkeypatch, 1.01)
        check = cv.offline_teleport(VAC, TEN_DB_R).check("noise_is_isotropic_teleportation_noise")
        assert not check.passed
        # N = 1.01 e^{-2r}/2 I, so the error is 0.01 e^{-2r}/2
        assert check.value == pytest.approx(0.01 * 0.1 / 2, rel=1e-9)


def _wrapped(monkeypatch, module, name, change):
    """Replace ``module.name`` by a call of it whose result goes through ``change``."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(*original(*args)))


def _shifted(channel, delta):
    return cv.GaussianChannel(channel.S + delta * np.eye(2), channel.N)


def _chain_S_shifted(delta):
    return lambda mp: _wrapped(
        mp, protocols, "chain_channel", lambda channel, leak: (_shifted(channel, delta), leak)
    )


def _report_at_ten_db(protocol, **params):
    return lambda: cv.run_named_protocol(protocol, {"squeezing_db": 10.0, **params})


def _unscaled_control():
    r_gate = protocols.PARAMETER_DEFAULTS["r_gate"]
    return cv.offline_squeezer(VAC, TEN_DB_R, r_gate, rescale_correction=False)


# document check name -> (a report at 10 dB with the other parameters at their
# defaults and a vacuum input, a mutation that turns the check red): every
# check a document writes must be able to fail
DOCUMENT_CHECK_MUTATIONS = {
    "outcome_independent": (
        _report_at_ten_db("identity_chain"),
        lambda mp: mp.setattr(engine, "update_frame", _flipped_frame_sign),
    ),
    "channel_noise_psd": (
        _report_at_ten_db("identity_chain"),
        lambda mp: patch_squeezed_variance(mp, -1.0),
    ),
    "noise_trace_matches_step_budget": (
        _report_at_ten_db("identity_chain"),
        lambda mp: patch_squeezed_variance(mp, 1.01),
    ),
    "matches_exact_four_step_matrix": (_report_at_ten_db("squeezer_four_step"), _chain_S_shifted(1e-3)),
    "within_cubic_error_of_target": (_report_at_ten_db("squeezer_four_step"), _chain_S_shifted(0.1)),
    "matches_exact_segment_power": (_report_at_ten_db("repeated_squeezer"), _chain_S_shifted(1e-3)),
    "noise_is_isotropic_teleportation_noise": (
        _report_at_ten_db("offline_teleport"),
        lambda mp: patch_squeezed_variance(mp, 1.01),
    ),
    "vacuum_fidelity_matches_closed_form": (
        _report_at_ten_db("offline_teleport"),
        lambda mp: patch_squeezed_variance(mp, 1.01),
    ),
    "channel_matches_target_squeezer": (
        _report_at_ten_db("offline_squeezer"),
        lambda mp: _wrapped(
            mp, protocols, "affine_channel", lambda ch, leak: (_shifted(ch, 1e-3), leak)
        ),
    ),
    "noise_is_squeezed_teleportation_noise": (
        _report_at_ten_db("offline_squeezer"),
        lambda mp: patch_squeezed_variance(mp, 1.01),
    ),
    # a leak readout that reads zero hides the control's outcome dependence
    "outcome_dependence_detected": (
        _unscaled_control,
        lambda mp: _wrapped(mp, protocols, "affine_channel", lambda ch, leak: (ch, 0.0)),
    ),
}


class TestEveryDocumentCheckCanFail:
    @pytest.mark.parametrize("name", DOCUMENT_CHECK_MUTATIONS)
    def test_each_document_check_fails_under_its_mutation(self, monkeypatch, name):
        build, mutate = DOCUMENT_CHECK_MUTATIONS[name]
        assert build().check(name).passed
        mutate(monkeypatch)
        assert not build().check(name).passed

    def test_every_document_check_has_a_mutation_row(self):
        # the checks the five reports emit at the defaults with a vacuum
        # input, and the negative control's
        reports = [cv.run_named_protocol(protocol, {}) for protocol in protocols.PROTOCOLS]
        r, r_gate = cv.db_to_squeezing_r(100.0), protocols.PARAMETER_DEFAULTS["r_gate"]
        reports.append(cv.offline_squeezer(VAC, r, r_gate, rescale_correction=False))
        names = {check.name for report in reports for check in report.checks}
        assert len(names) == 11
        assert names == set(DOCUMENT_CHECK_MUTATIONS)


def _gate_changed(name, change):
    """Build ``checks.<name>``'s gates with ``change`` applied to their matrices."""
    original = getattr(checks, name)
    return lambda mp: mp.setattr(
        checks, name, lambda *args: change(original(*args))
    )


def _unit(row, col, size=4):
    unit = np.zeros((size, size))
    unit[row, col] = 1.0
    return unit


def _argument_changed(module, name, change):
    """Call ``module.<name>`` with its first argument passed through ``change``."""
    original = getattr(module, name)
    return lambda mp: mp.setattr(
        module, name, lambda first, *rest: original(change(first), *rest)
    )


def _result_changed(module, name, change):
    """Pass what ``module.<name>`` returns through ``change``."""
    original = getattr(module, name)
    return lambda mp: mp.setattr(module, name, lambda *args: change(original(*args)))


def _shift_sign_flipped(mp):
    # conjugation by X(-s1) instead of X(s1)
    shift = algebra._taylor_shift
    mp.setattr(algebra, "_taylor_shift", lambda coefficients, s: shift(coefficients, -s))


def _ungained_offline_squeezer(mp):
    # the feedforward applied without the gate's rescaling
    offline_facts = protocols._offline_facts
    mp.setattr(
        protocols, "_offline_facts",
        lambda state, r, gate, gain, *rest: offline_facts(state, r, gate, np.eye(2), *rest),
    )


def _sub_vacuum_cluster_nodes(mp):
    # each node's anti-squeezed variance given the squeezed value e^{-2r}/4
    mp.setattr(
        cluster, "squeezed_vacuum",
        lambda r, axis: cv.GaussianState(np.zeros(2), math.exp(-2 * r) / 4 * np.eye(2)),
    )


def _engine_squeezed_variance_doubled(mp):
    # in the engine's channels only, not in the cluster states that verify
    # assembles with phase_space's squeezed vacua
    variances = engine.resource_variances
    mp.setattr(engine, "resource_variances", lambda r: (variances(r)[0], 2 * variances(r)[1]))


_frame_sign_flipped = lambda mp: mp.setattr(engine, "update_frame", _flipped_frame_sign)
# steps (kappa, kappa, kappa, kappa): a deviation of O(kappa), ratio 2
_one_sided_steps = _argument_changed(algebra, "fourier_shear_step", abs)
# S(kappa^2) for S(kappa^2 / 2) in the BCH split: a residual of O(kappa^2), ratio 4
_doubled_bch_squeezing = _argument_changed(algebra, "squeezer", lambda r: 2 * r)
# verify check name -> a mutation that turns it red in checks.run_all_checks()
VERIFY_CHECK_MUTATIONS = {
    # one column's sign flipped: not symplectic
    "symplectic_condition_all_gates": _gate_changed("beamsplitter_5050", lambda S: S * [1, 1, 1, -1]),
    # R(-theta) for R(theta)
    "rotation_half_pi_equals_fourier": _gate_changed("rotation", lambda S: S.T),
    # p -> p - kappa x for x -> x - kappa p
    "fourier_conjugates_shear_to_p_shear": _gate_changed("p_shear", lambda S: S.T),
    # the coupling's sign flipped (I + A becomes I - A)
    "fourier_pair_conjugates_cz_to_cz_pp": _gate_changed(
        "controlled_z_pp", lambda S: 2 * np.eye(4) - S
    ),
    # a stray x += 1e-3 p on one mode
    "cz_commutes_with_shear_on_mode_0": _gate_changed(
        "controlled_z", lambda S: S + 1e-3 * _unit(0, 1)
    ),
    "cz_commutes_with_shear_on_mode_1": _gate_changed(
        "controlled_z", lambda S: S + 1e-3 * _unit(2, 3)
    ),
    # the global phase kappa s1^3 dropped from the residual
    "cubic_feedforward_constant_is_phase": _result_changed(
        algebra, "verify_cubic_feedforward",
        lambda residual: (0, *residual[1:]),
    ),
    "cubic_feedforward_degrees_1_to_3_vanish": _shift_sign_flipped,
    # R(-kappa) in the BCH split: a residual of O(kappa)
    "bch_residual_small_at_0.1": _argument_changed(algebra, "rotation", lambda theta: -theta),
    "bch_cubic_scaling_ratio_at_0.025": _doubled_bch_squeezing,
    "bch_cubic_scaling_ratio_at_0.05": _doubled_bch_squeezing,
    "bch_cubic_scaling_ratio_at_0.1": _doubled_bch_squeezing,
    # a stray 0.01 in each step's p-p entry
    "four_step_matrix_det_one": _result_changed(
        algebra, "fourier_shear_step", lambda step: step + 0.01 * _unit(1, 1, size=2)
    ),
    "four_step_deviation_ratio_at_0.025": _one_sided_steps,
    "four_step_deviation_ratio_at_0.05": _one_sided_steps,
    "four_step_deviation_ratio_at_0.1": _one_sided_steps,
    "chain_matches_measurement_picture": _engine_squeezed_variance_doubled,
    "outcome_independent_identity_chain_ideal": _frame_sign_flipped,
    "outcome_independent_identity_chain_10db": _frame_sign_flipped,
    "outcome_independent_squeezer_ideal": _frame_sign_flipped,
    "outcome_independent_squeezer_10db": _frame_sign_flipped,
    "outcome_independent_offline_squeezer_corrected": _ungained_offline_squeezer,
    # a leak readout that reads zero
    "offline_squeezer_unscaled_control_detects_dependence": lambda mp: _wrapped(
        mp, protocols, "affine_channel", lambda ch, leak: (ch, 0.0)
    ),
    "uncertainty_relation_protocol_states": _sub_vacuum_cluster_nodes,
    # the squeezed resource variance 1 % high
    "teleport_fidelity_closed_form": lambda mp: patch_squeezed_variance(mp, 1.01),
}


class TestEveryVerifyCheckCanFail:
    @pytest.mark.parametrize("name", list(VERIFY_CHECK_MUTATIONS))
    def test_each_verify_check_fails_under_its_mutation(self, monkeypatch, name):
        assert {row.name: row for row in checks.run_all_checks()}[name].passed
        VERIFY_CHECK_MUTATIONS[name](monkeypatch)
        assert not {row.name: row for row in checks.run_all_checks()}[name].passed

    def test_every_verify_check_has_a_mutation_row(self):
        names = [row.name for row in checks.run_all_checks()]
        assert len(names) == len(set(names)) == 25
        assert set(names) == set(VERIFY_CHECK_MUTATIONS)


CHAIN_ROWS = [
    f"outcome_independent_{name}"
    for name in ("identity_chain_ideal", "identity_chain_10db", "squeezer_ideal", "squeezer_10db")
]


class TestVerifyRowsHaveOneOwner:
    # verify's protocol rows copy their reports' own checks: the reports'
    # thresholds and closed forms decide them, with no second copy in checks
    def test_chain_rows_take_the_reports_independence_tolerance(self, monkeypatch):
        monkeypatch.setattr(protocols, "INDEPENDENCE_TOL", -1.0)
        rows = {row.name: row for row in checks.outcome_independence_checks()}
        assert [name for name in CHAIN_ROWS if rows[name].passed] == []

    def test_control_row_takes_the_reports_dependence_minimum(self, monkeypatch):
        control = cv.offline_squeezer(VAC, cv.IDEAL_SQUEEZING_R, 0.04, rescale_correction=False)
        leak = control.check("outcome_dependence_detected").value
        monkeypatch.setattr(protocols, "DEPENDENCE_MIN", 2.0 * leak)
        rows = {row.name: row for row in checks.outcome_independence_checks()}
        assert not rows["offline_squeezer_unscaled_control_detects_dependence"].passed

    def test_fidelity_row_takes_the_reports_closed_form_check(self, monkeypatch):
        # the second of the three reports fails its check; the row must fail with it
        offline_teleport, reports = protocols.offline_teleport, []

        def second_fails(*args, **kwargs):
            report = offline_teleport(*args, **kwargs)
            reports.append(report)
            if len(reports) != 2:
                return report
            failed = tuple(
                c._replace(passed=False)
                if c.name == "vacuum_fidelity_matches_closed_form" else c
                for c in report.checks
            )
            return dataclasses.replace(report, checks=failed)

        monkeypatch.setattr(protocols, "offline_teleport", second_fails)
        (row,) = checks.teleport_fidelity_checks()
        assert len(reports) == 3
        assert row.name == "teleport_fidelity_closed_form" and not row.passed
        own = [report.check("vacuum_fidelity_matches_closed_form").value for report in reports]
        assert row.value == max(own)


# single-mode states that violate cov + (i/4)J >= 0, which no config builds
UNPHYSICAL_INPUTS = {
    "zero_covariance": cv.GaussianState(np.zeros(2), np.zeros((2, 2))),
    "sub_vacuum": cv.GaussianState(np.zeros(2), np.diag([0.01, 0.01])),
    "below_the_uncertainty_bound": cv.GaussianState(np.ones(2), np.diag([0.1, 0.5])),
    "nan_variance": cv.GaussianState(np.zeros(2), np.diag([math.nan, 0.25])),
}
LARGEST_CLI_R = math.log(np.finfo(float).max) / 2  # the largest squeezed r a config takes
CLI_EXTREME_INPUTS = {
    "squeezed_largest_r_x": {"kind": "squeezed", "r": LARGEST_CLI_R, "axis": "x"},
    "squeezed_largest_r_p": {"kind": "squeezed", "r": LARGEST_CLI_R, "axis": "p"},
    "coherent_1e300": {"kind": "coherent", "re": 1e300, "im": -1e300},
    "coherent_largest_float": {"kind": "coherent", "re": np.finfo(float).max, "im": 0.0},
}


class TestUnphysicalInputRefused:
    @pytest.mark.parametrize("state", UNPHYSICAL_INPUTS.values(), ids=list(UNPHYSICAL_INPUTS))
    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_refused_before_any_channel_is_built(self, monkeypatch, protocol, state):
        built = []
        for name in ("chain_channel", "affine_channel"):
            monkeypatch.setattr(protocols, name, lambda *args, name=name: built.append(name))
        with pytest.raises(ValueError, match="uncertainty relation"):
            cv.run_named_protocol(protocol, {"input_state": state})
        assert built == []

    def test_negative_control_refuses_it_too(self):
        with pytest.raises(ValueError, match="uncertainty relation"):
            cv.offline_squeezer(UNPHYSICAL_INPUTS["sub_vacuum"], 1.0, 0.1, rescale_correction=False)

    @pytest.mark.parametrize("r", [0.0, 1.0, 10.0, LARGEST_CLI_R])
    @pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2])
    @pytest.mark.parametrize("scale", [1.0, 1.5, 1.0 - 1e-3, 0.5])
    def test_refuses_what_uncertainty_defect_refuses(self, r, theta, scale):
        # the report path's closed form for one mode against phase_space's eigensolver
        R = cv.rotation(theta)
        cov = R @ (scale * np.diag([math.exp(2 * r) / 4, math.exp(-2 * r) / 4])) @ R.T
        state = cv.GaussianState(np.zeros(2), 0.5 * (cov + cov.T))
        if cv.uncertainty_defect(state) > 1e-12:
            with pytest.raises(ValueError, match="uncertainty relation"):
                protocols._trial_seeds(state, 0, 1)
        else:
            assert protocols._trial_seeds(state, 0, 1) == range(1)

    def test_largest_squeezed_r_is_the_clis(self):
        assert protocols._finite_squeezing(LARGEST_CLI_R)
        assert not protocols._finite_squeezing(np.nextafter(LARGEST_CLI_R, math.inf))

    # no np.errstate, unlike the CLI: an accepted report warns of nothing
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", CLI_EXTREME_INPUTS.values(), ids=list(CLI_EXTREME_INPUTS))
    @pytest.mark.parametrize("protocol", list(protocols.PROTOCOLS))
    def test_every_input_a_config_builds_is_accepted(self, protocol, spec):
        state = cli.build_input_state(spec)
        assert cv.uncertainty_defect(state) <= 1e-12
        report = cv.run_named_protocol(
            protocol, {"squeezing_db": 10.0, "input_state": state}, trials=2
        )
        assert report.all_passed()
        assert len(report.record_columns) == 2
        # the run document writes each check as it is held
        assert all(type(c.passed) is bool and type(c.value) is float for c in report.checks)
