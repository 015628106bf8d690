import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from qtel import cli, dynamics
from qtel.cli import ConfigError, ExperimentConfig, presets, run, main
from qtel.dynamics import echo_signal
from qtel.superop import decoherence_generator, spectral_decomposition

# Every preset on a grid small enough for the suite, keeping its experiment and parameters.
SHRUNK = {
    "fig2": {"t_points": 51, "t_max": 10.0},
    "fig3a": {"theta_points": 5},
    "fig3b": {"theta_points": 5},
    "fig4a": {"tau_points": 4},
    "fig4b": {"tau_points": 4},
    "fig5": {"t_points": 41, "t_max": 10.0},
    "fig6": {"t_points": 41, "t_max": 10.0},
}

NAN = float("nan")
MC_VERIFY = {"experiment": "mc-verify", "g": 0.3, "theta": 0.7, "probe_times": [1.0, 2.0]}


class TestConfigValidation:
    def test_minimal_free_decay(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "free-decay",
                "g": 0.3,
                "theta": 0.5,
                "t_max": 10.0,
                "t_points": 11,
                "initial": [1.0, 0.0, 0.0],
            }
        )
        assert cfg.experiment == "free-decay"
        assert cfg.coupling_vector().shape == (3,)

    def test_errors_are_aggregated(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(
                {
                    "experiment": "free-decay",
                    "gamma": -1.0,
                    "initial": [2.0, 0.0, 0.0],
                    "seed": -5,
                }
            )
        message = str(err.value)
        assert "gamma" in message
        assert "seed" in message
        assert "g or g_vector" in message
        assert "t_max" in message

    def test_unknown_fields_reported(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict({"experiment": "enum-verify", "bogus": 1})

    def test_unknown_experiment_reported(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict({"experiment": "teleport"})

    def test_enum_verify_dt_checked_against_its_grid(self):
        # The grid reaches gamma = 1.0, so dt = 1.0 would fail at run time.
        with pytest.raises(ConfigError, match="dt"):
            ExperimentConfig.from_dict({"experiment": "enum-verify", "dt": 1.0})

    def test_sweep_eta_values_checked_against_gamma(self):
        with pytest.raises(ConfigError, match="eta_values"):
            ExperimentConfig.from_dict(presets()["fig3a"] | {"eta_values": [0.0, 0.7]})

    # The range checks the CLI used to repeat now run in the library; none is looser.
    @pytest.mark.parametrize(
        "raw, field",
        [
            pytest.param(presets()["fig2"] | {"b0": -1.0}, "b0", id="b0"),
            pytest.param(presets()["fig2"] | {"gamma": -1.0}, "gamma", id="gamma"),
            pytest.param(presets()["fig4a"] | {"eta": 0.2}, "eta", id="eta"),
            pytest.param(presets()["fig3a"] | {"eta_values": [0.0, 0.7]}, "eta_values",
                         id="eta_values"),
            pytest.param(presets()["fig2"] | {"g_vector": [0.1, 0.2]}, "g_vector", id="g_vector"),
            pytest.param(presets()["fig2"] | {"initial": [2.0, 0.0, 0.0]}, "initial",
                         id="initial"),
            pytest.param({"experiment": "enum-verify", "dt": 1.0}, "dt", id="dt"),
        ],
    )
    def test_library_range_checks_reject(self, raw, field):
        with pytest.raises(ConfigError, match=rf"\n  {field}: "):
            ExperimentConfig.from_dict(raw)

    # Configs that used to pass validation and then fail mid-run or write wrong numbers.
    @pytest.mark.parametrize(
        "raw, field",
        [
            pytest.param(presets()["fig2"] | {"gamma": 0.0}, "gamma", id="gamma-zero"),
            pytest.param(presets()["fig2"] | {"gamma": NAN}, "gamma", id="gamma-nan"),
            pytest.param(presets()["fig4a"] | {"eta": NAN}, "eta", id="eta-nan"),
            pytest.param(presets()["fig2"] | {"theta": NAN}, "theta", id="theta-nan"),
            pytest.param(presets()["fig5"] | {"t_max": NAN}, "t_max", id="t_max-nan"),
            pytest.param(presets()["fig4b"] | {"tau_max": NAN}, "tau_max", id="tau_max-nan"),
            pytest.param(presets()["fig2"] | {"white_noise": [-1.0, 0.0, 0.0]}, "white_noise",
                         id="white_noise-negative"),
            pytest.param(presets()["fig2"] | {"white_noise": [1.0, 0.0]}, "white_noise",
                         id="white_noise-short"),
            pytest.param(presets()["fig2"] | {"g_vector": [NAN, 0.0, 0.3]}, "g_vector",
                         id="g_vector-nan"),
            pytest.param(MC_VERIFY | {"initial": [2.0, 0.0, 0.0]}, "initial",
                         id="mc-verify-initial"),
            pytest.param(MC_VERIFY | {"probe_times": [1.0, NAN]}, "probe_times",
                         id="probe_times-nan"),
            pytest.param(MC_VERIFY | {"white_noise": [0.1, 0.0, 0.0]}, "white_noise",
                         id="mc-verify-white_noise"),
        ],
    )
    def test_run_breaking_values_rejected(self, raw, field):
        with pytest.raises(ConfigError, match=rf"\n  {field}: "):
            ExperimentConfig.from_dict(raw)

    # Values of the wrong type used to fail without their field's name, or mid-run.
    @pytest.mark.parametrize(
        "override, line",
        [
            pytest.param({"t_points": "5"}, "t_points: must be an integer", id="int-as-string"),
            pytest.param({"t_points": 5.5}, "t_points: must be an integer", id="int-as-float"),
            pytest.param({"g": "0.3"}, "g: must be a number", id="float-as-string"),
        ],
    )
    def test_field_types_checked(self, override, line):
        with pytest.raises(ConfigError, match=rf"\n  {line}$"):
            ExperimentConfig.from_dict(presets()["fig2"] | override)

    def test_round_trip_dict(self):
        raw = presets()["fig2"]
        cfg = ExperimentConfig.from_dict(raw)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg == again


class TestPresets:
    def test_catalog_complete(self):
        names = set(presets())
        assert names == {"fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig5", "fig6"}

    def test_reference_parameters(self):
        catalog = presets()
        assert catalog["fig2"]["gamma"] == 0.1 and catalog["fig2"]["g"] == 0.3
        assert catalog["fig2"]["theta"] == math.pi / 4
        assert catalog["fig3a"]["gamma"] == 0.5 and catalog["fig3a"]["g"] == 0.1
        assert catalog["fig3a"]["eta_values"] == [0.0, 0.1]
        assert catalog["fig3b"]["gamma"] == 0.1 and catalog["fig3b"]["g"] == 0.3
        assert catalog["fig3b"]["eta_values"] == [0.0, 0.05]
        assert catalog["fig4a"]["g"] == 0.03 and catalog["fig4b"]["g"] == 3.0
        assert catalog["fig4a"]["theta"] == math.pi / 4
        assert catalog["fig5"]["g"] == 0.8 and catalog["fig6"]["g"] == 0.08
        for name in ("fig5", "fig6"):
            assert catalog[name]["theta_values"] == [0.0, math.pi / 4, math.pi / 2]
            assert catalog[name]["gamma"] == 0.1

    def test_every_preset_validates(self):
        for raw in presets().values():
            ExperimentConfig.from_dict(raw)


class TestRun:
    def test_free_decay_output_shape(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "free-decay",
                "g": 0.3,
                "theta": math.pi / 4,
                "t_max": 5.0,
                "t_points": 21,
                "initial": [1.0, 0.0, 0.0],
                "frame": "rotating",
            }
        )
        csv_path = run(cfg, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,n_x,n_y,n_z"
        assert lines[1] == "1/B0,1,1,1"
        assert len(lines) == 2 + 21
        meta = json.loads((tmp_path / "free-decay.meta.json").read_text())
        assert meta["config"]["experiment"] == "free-decay"
        assert meta["n_rows"] == 21

    @pytest.mark.parametrize("preset", sorted(SHRUNK))
    def test_rerun_from_embedded_config_is_byte_identical(self, tmp_path, preset):
        cfg = ExperimentConfig.from_dict(presets()[preset] | SHRUNK[preset])
        first = run(cfg, tmp_path / "a")
        meta = json.loads(first.with_suffix(".meta.json").read_text())
        again = ExperimentConfig.from_dict(meta["config"])
        second = run(again, tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()

    def test_bang_bang_sweep_is_one_public_call(self, tmp_path, monkeypatch):
        # The whole sweep goes through the public function, once, with every spacing.
        calls = []

        def counting(sys, tau, *args, **kwargs):
            calls.append(np.shape(tau))
            return dynamics.bang_bang_operator(sys, tau, *args, **kwargs)

        monkeypatch.setattr(cli, "bang_bang_operator", counting)
        run(ExperimentConfig.from_dict(presets()["fig4a"] | SHRUNK["fig4a"]), tmp_path)
        assert calls == [(4,)]

    def test_mc_verify_reproducible_and_close(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "mc-verify",
                "g": 0.3,
                "theta": math.pi / 4,
                "initial": [1.0, 0.0, 0.0],
                "probe_times": [1.0, 5.0],
                "n_samples": 20000,
                "seed": 99,
            }
        )
        first = run(cfg, tmp_path / "a")
        second = run(cfg, tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()
        rows = np.loadtxt(first, delimiter=",", skiprows=2)
        nsigma = rows[:, 5]
        assert nsigma.max() < 6.0

    def test_enum_verify_errors_below_tolerance(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"experiment": "enum-verify", "n_steps": 12, "dt": 0.1})
        csv_path = run(cfg, tmp_path)
        row = np.loadtxt(csv_path, delimiter=",", skiprows=2)
        assert row[3] < 1e-12  # max abs error
        assert row[4] < 1e-12  # probability normalization error

    def test_values_round_trip_losslessly(self, tmp_path):
        cfg = ExperimentConfig.from_dict(presets()["fig2"] | {"t_points": 8, "t_max": 3.0})
        csv_path = run(cfg, tmp_path)
        from qtel.dynamics import free_trajectory, to_rotating_frame

        traj = to_rotating_frame(
            free_trajectory(cfg.system(), np.array(cfg.initial), np.linspace(0, 3.0, 8)), 1.0
        )
        parsed = np.loadtxt(csv_path, delimiter=",", skiprows=2)
        assert np.array_equal(parsed[:, 1:], traj.points)

    def test_csv_rows_match_per_value_format(self, rng):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.0, 1e16, -1e16 / 3, 0.1]
        values = np.concatenate([special, rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40),
                                 rng.random(30)]).reshape(-1, 4)
        cfg = ExperimentConfig.from_dict(presets()["fig2"])
        table = cli.ResultTable(name="t", columns=("a", "b", "c", "d"), units=("1",) * 4,
                                rows=values, config=cfg)
        lines = ["a,b,c,d", "1,1,1,1"] + [",".join(f"{v:.17g}" for v in row) for row in values]
        assert table.csv_text() == "\n".join(lines) + "\n"

    def test_csv_repeated_columns_match_per_value_format(self, rng):
        # Sweep-grid columns repeat their values.  -0.0 and 0.0 share a column and must
        # not merge, which matching by == would do; nan, inf and -inf repeat too.
        grid = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 1e-300])
        rows = np.column_stack([np.repeat(grid, 3), np.tile(grid, 3), rng.normal(size=21),
                                np.repeat([0.0, -0.0, 5e-324], 7)])
        cfg = ExperimentConfig.from_dict(presets()["fig2"])
        # The whole table, one row (as enum-verify writes) and one column.
        for values in (rows, rows[:1], rows[:, :1], rows[:, 1:2]):
            columns = tuple("abcd"[:values.shape[1]])
            table = cli.ResultTable(name="t", columns=columns, units=("1",) * len(columns),
                                    rows=values, config=cfg)
            lines = [",".join(columns), ",".join(["1"] * len(columns))]
            lines += [",".join(f"{v:.17g}" for v in row) for row in values]
            assert table.csv_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("split", [False, True])
    def test_echo_stack_equals_per_angle_signals(self, monkeypatch, split):
        # With g = gamma, theta 0 is an exceptional point: that member is flagged defective
        # and runs expm, the others run the spectral form, all from one stacked eigensolve
        # (or, in stacks of two, from the second stack).
        if split:
            monkeypatch.setattr(cli, "_member_blocks",
                                lambda n, dim: [slice(k, k + 2) for k in range(0, n, 2)])
        cfg = ExperimentConfig.from_dict({"experiment": "echo", "g": 0.1, "gamma": 0.1,
                                          "theta_values": [0.7, 1.2, 0.0],
                                          "t_max": 40.0, "t_points": 41})
        table = cli._run_echo(cfg)
        times = np.linspace(0.0, cfg.t_max, cfg.t_points)
        for k, theta in enumerate(cfg.theta_values):
            sys = cfg.system(g_vector=cfg.g * np.array([math.sin(theta), 0.0, math.cos(theta)]))
            assert spectral_decomposition(decoherence_generator(sys)).defective == (theta == 0.0)
            rows = table.rows[k * len(times):(k + 1) * len(times)]
            assert np.array_equal(rows[:, 0], np.full(len(times), theta))
            assert np.array_equal(rows[:, 1], times)
            assert np.array_equal(rows[:, 2], echo_signal(sys, times))

    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"experiment": "enum-verify"})
        run(cfg, tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestCliEntryPoint:
    def test_list_presets(self):
        result = CliRunner().invoke(main, ["list"])
        assert result.exit_code == 0
        for name in ("fig2", "fig5", "fig6"):
            assert name in result.output

    def test_unknown_target_fails(self):
        result = CliRunner().invoke(main, ["figZ"])
        assert result.exit_code != 0
        assert "unknown target" in result.output

    def test_preset_run_writes_outputs(self, tmp_path):
        result = CliRunner().invoke(
            main, ["fig2", "--out", str(tmp_path), "--seed", "5"]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "fig2.csv").exists()
        assert (tmp_path / "fig2.meta.json").exists()

    def test_invalid_config_file_reports_field(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"gamma": -2.0}))
        result = CliRunner().invoke(
            main, ["fig2", "--config", str(config), "--out", str(tmp_path)]
        )
        assert result.exit_code != 0
        assert "gamma" in result.output

    def test_non_finite_config_value_reports_field(self, tmp_path):
        config = tmp_path / "nan.json"
        config.write_text('{"theta_values": [0.0, NaN]}')  # json.load accepts the literal
        result = CliRunner().invoke(
            main, ["fig5", "--config", str(config), "--out", str(tmp_path)]
        )
        assert result.exit_code != 0
        assert "theta_values: must be finite" in result.output
        assert not (tmp_path / "fig5.csv").exists()

    def test_experiment_without_required_fields_fails_cleanly(self, tmp_path):
        result = CliRunner().invoke(main, ["echo", "--out", str(tmp_path)])
        assert result.exit_code != 0
        assert "theta_values" in result.output

    def test_enum_verify_prints_error_line(self, tmp_path):
        result = CliRunner().invoke(main, ["enum-verify", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "max abs error" in result.output
