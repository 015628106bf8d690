import dataclasses
import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from qtel import cli, dynamics, superop
from qtel.cli import ConfigError, ExperimentConfig, presets, run, main
from qtel.dynamics import echo_signal
from qtel.oracle import sample_trajectories
from qtel.rates import angle_sweep
from qtel.superop import decoherence_generator, spectral_decomposition, transfer_from_spectral

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
# A valid config of each experiment, and a valid value other than its default for every
# field but experiment.
BASES = {"free-decay": presets()["fig2"], "rates-sweep": presets()["fig3a"],
         "bang-bang": presets()["fig4a"], "echo": presets()["fig5"], "mc-verify": MC_VERIFY,
         "enum-verify": {"experiment": "enum-verify"}}
NON_DEFAULT = {
    "b0": 1.5, "gamma": 0.2, "eta": 0.05, "g": 0.2, "g_vector": [0.1, 0.0, 0.2], "theta": 0.3,
    "theta_values": [0.1, 0.2], "theta_points": 5, "eta_values": [0.0, 0.05],
    "white_noise": [0.01, 0.0, 0.01], "initial": [0.0, 1.0, 0.0], "frame": "rotating",
    "t_max": 5.0, "t_points": 11, "tau_min": 0.5, "tau_max": 8.0, "tau_points": 5,
    "tau_spacing": "log", "pulse_axis": "x", "dt": 0.05, "n_steps": 8,
    "probe_times": [1.0, 3.0], "n_samples": 1000, "seed": 5, "workers": 2,
}
# The fields that each of these replaces when given.
REPLACES = {"g_vector": ("g", "theta"), "theta_values": ("theta_points",)}
UNREAD = [pytest.param(experiment, f.name, id=f"{experiment}-{f.name}")
          for experiment, (*_, reads) in cli.EXPERIMENTS.items()
          for f in dataclasses.fields(ExperimentConfig)
          if f.name not in {*reads, "experiment", "seed"}]


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

    # Fields that these sweeps do not read used to pass and leave the CSV unchanged.
    @pytest.mark.parametrize(
        "raw, field",
        [
            pytest.param(presets()["fig3a"] | {"white_noise": [0.05, 0.05, 0.05]}, "white_noise",
                         id="rates-sweep-white_noise"),
            pytest.param(presets()["fig3a"] | {"g_vector": [0.0, 0.0, 0.1]}, "g_vector",
                         id="rates-sweep-g_vector"),
            pytest.param(presets()["fig3a"] | {"eta": 0.1}, "eta", id="rates-sweep-eta"),
            pytest.param(presets()["fig5"] | {"g_vector": [0.0, 0.0, 0.8]}, "g_vector",
                         id="echo-g_vector"),
        ],
    )
    def test_fields_a_sweep_ignores_rejected(self, raw, field):
        with pytest.raises(ConfigError, match=rf"\n  {field}: not read by"):
            ExperimentConfig.from_dict(raw)

    # Each field that an experiment does not read is refused by one rule, by name.
    @pytest.mark.parametrize("experiment, name", UNREAD)
    def test_field_not_read_refused(self, experiment, name):
        with pytest.raises(ConfigError, match=rf"\n  {name}: not read by {experiment}(\n|$)"):
            ExperimentConfig.from_dict(BASES[experiment] | {name: NON_DEFAULT[name]})

    # ... and each field it reads, and the seed, take a value other than the default; a
    # field that replaces others is set with those others unset.
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_fields_read_taken(self, experiment):
        *_, reads = cli.EXPERIMENTS[experiment]
        for name in (*reads, "seed"):
            if (experiment, name) != ("mc-verify", "white_noise"):  # the sampler takes none
                base = {k: v for k, v in BASES[experiment].items()
                        if k not in REPLACES.get(name, ())}
                ExperimentConfig.from_dict(base | {name: NON_DEFAULT[name]})

    # A field that an alternative given beside it overrides used to pass and leave the CSV
    # unchanged.
    @pytest.mark.parametrize(
        "experiment, name, given",
        [pytest.param(e, name, "g_vector", id=f"{e}-{name}")
         for e in ("free-decay", "bang-bang", "mc-verify") for name in REPLACES["g_vector"]]
        + [pytest.param("rates-sweep", "theta_points", "theta_values",
                        id="rates-sweep-theta_points")],
    )
    def test_overridden_field_refused(self, experiment, name, given):
        raw = BASES[experiment] | {name: NON_DEFAULT[name], given: NON_DEFAULT[given]}
        with pytest.raises(ConfigError, match=rf"\n  {name}: not read when {given} is given(\n|$)"):
            ExperimentConfig.from_dict(raw)

    def test_read_fields_are_config_fields(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment", "seed"}
        for experiment, (*_, reads) in cli.EXPERIMENTS.items():
            assert reads <= names, experiment

    def test_rates_sweep_takes_zero_white_noise(self):
        ExperimentConfig.from_dict(presets()["fig3a"] | {"white_noise": [0.0, 0.0, 0.0]})

    # Values of the wrong type used to fail without their field's name, or mid-run.
    @pytest.mark.parametrize(
        "override, line",
        [
            pytest.param({"t_points": "5"}, "t_points: must be an integer", id="int-as-string"),
            pytest.param({"t_points": 5.5}, "t_points: must be an integer", id="int-as-float"),
            pytest.param({"g": "0.3"}, "g: must be a number", id="float-as-string"),
            pytest.param({"initial": [1.0, "0", 0.0]}, "initial: must be a list of numbers",
                         id="list-with-a-string"),
            pytest.param({"initial": 1.0}, "initial: must be a list of numbers",
                         id="number-as-list"),
        ],
    )
    def test_field_types_checked(self, override, line):
        with pytest.raises(ConfigError, match=rf"\n  {line}$"):
            ExperimentConfig.from_dict(presets()["fig2"] | override)

    # Each rule of the CLI's own fields refuses a config with its one line.
    @pytest.mark.parametrize(
        "raw, line",
        [
            pytest.param({"g": 0.3}, "experiment: required", id="experiment"),
            pytest.param(MC_VERIFY | {"workers": 0}, "workers: must be >= 1", id="workers"),
            pytest.param({k: v for k, v in presets()["fig2"].items() if k != "theta"},
                         "theta: required when g is given as a magnitude", id="theta"),
            pytest.param({k: v for k, v in presets()["fig3a"].items() if k != "eta_values"},
                         "eta_values: required (use [0.0] for symmetric switching)",
                         id="eta_values"),
            pytest.param(presets()["fig2"] | {"frame": "body"},
                         "frame: must be 'lab' or 'rotating'", id="frame"),
            pytest.param(presets()["fig4a"] | {"tau_spacing": "cubic"},
                         "tau_spacing: must be 'linear' or 'log'", id="tau_spacing"),
            pytest.param(presets()["fig4a"] | {"pulse_axis": "z"},
                         "pulse_axis: must be 'x' or 'y'", id="pulse_axis"),
            pytest.param(presets()["fig4a"] | {"tau_min": 0.0},
                         "tau_min/tau_max/tau_points: required increasing grid, tau_min > 0",
                         id="tau-grid"),
            pytest.param({k: v for k, v in MC_VERIFY.items() if k != "probe_times"},
                         "probe_times: required", id="probe_times-missing"),
            pytest.param(MC_VERIFY | {"probe_times": [2.0, 1.0]},
                         "probe_times: must be positive and strictly increasing",
                         id="probe_times-decreasing"),
            pytest.param(MC_VERIFY | {"n_samples": 1}, "n_samples: must be >= 2", id="n_samples"),
            pytest.param({"experiment": "enum-verify", "n_steps": 21},
                         "n_steps: must be in [1, 20]", id="n_steps-above"),
            pytest.param({"experiment": "enum-verify", "n_steps": 0},
                         "n_steps: must be in [1, 20]", id="n_steps-zero"),
        ],
    )
    def test_rule_refused_by_its_line(self, raw, line):
        with pytest.raises(ConfigError, match=rf"\n  {re.escape(line)}(\n|$)"):
            ExperimentConfig.from_dict(raw)

    def test_round_trip_dict(self):
        raw = presets()["fig2"]
        cfg = ExperimentConfig.from_dict(raw)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg == again

    def test_to_dict_turns_arrays_into_lists(self):
        cfg = ExperimentConfig(experiment="rates-sweep", g=0.1, theta_values=np.array([0.1, 0.2]),
                               eta_values=np.array([0.0]))
        out = cfg.to_dict()
        assert type(out["theta_values"]) is list and out["theta_values"] == [0.1, 0.2]
        assert type(out["eta_values"]) is list and out["eta_values"] == [0.0]
        assert json.loads(json.dumps(out)) == out


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

    @pytest.mark.parametrize("preset, checks", [("fig2", 1), ("fig3a", 2), ("fig3b", 2),
                                                ("fig4a", 2), ("fig4b", 2), ("fig5", 1),
                                                ("fig6", 1)])
    def test_pair_layout_checked_once_per_stack(self, tmp_path, monkeypatch, preset, checks):
        # A decomposition built from a checked stack is not checked again.
        calls = []

        def counting(eigenvalues, name):
            calls.append(eigenvalues.shape)
            return pair_layout(eigenvalues, name)

        pair_layout = superop._pair_layout
        monkeypatch.setattr(superop, "_pair_layout", counting)
        run(ExperimentConfig.from_dict(presets()[preset] | SHRUNK[preset]), tmp_path)
        assert len(calls) == checks

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

    # Noise along z keeps +z fixed in every sample: each stderr is 0, and so each nsigma.
    @pytest.mark.parametrize("spread, overrides", [(True, {}), (False, {"theta": 0.0})])
    def test_mc_verify_rows_match_per_entry_loop(self, spread, overrides):
        cfg = ExperimentConfig.from_dict(MC_VERIFY | overrides | {"n_samples": 2000, "seed": 7})
        rows = cli._run_mc_verify(cfg)
        sys, initial = cfg.system(), np.array(cfg.initial)
        estimate = sample_trajectories(sys, initial, np.array(cfg.probe_times), cfg.n_samples,
                                       cfg.seed)
        exact = transfer_from_spectral(spectral_decomposition(decoherence_generator(sys)),
                                       np.array(cfg.probe_times)) @ initial
        expected = []
        for k, t in enumerate(cfg.probe_times):
            for c in range(3):
                sigma = estimate.stderr[k, c]
                nsig = abs(estimate.mean[k, c] - exact[k, c]) / sigma if sigma > 0 else 0.0
                expected.append([t, c, estimate.mean[k, c], sigma, exact[k, c], nsig])
        assert np.array_equal(rows, np.array(expected))
        assert np.all(rows[:, 3] > 0) if spread else np.all(rows[:, 3] == 0)

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
            monkeypatch.setattr(superop, "_STACK_ENTRIES", 2 * 6**2)
        cfg = ExperimentConfig.from_dict({"experiment": "echo", "g": 0.1, "gamma": 0.1,
                                          "theta_values": [0.7, 1.2, 0.0],
                                          "t_max": 40.0, "t_points": 41})
        rows = cli._run_echo(cfg)
        times = np.linspace(0.0, cfg.t_max, cfg.t_points)
        for k, theta in enumerate(cfg.theta_values):
            sys = cfg.system(g_vector=cfg.g * np.array([math.sin(theta), 0.0, math.cos(theta)]))
            assert spectral_decomposition(decoherence_generator(sys)).defective == (theta == 0.0)
            block = rows[k * len(times):(k + 1) * len(times)]
            assert np.array_equal(block[:, 0], np.full(len(times), theta))
            assert np.array_equal(block[:, 1], times)
            assert np.array_equal(block[:, 2], echo_signal(sys, times))

    def test_every_sweep_stack_decomposed_in_superop(self, monkeypatch, tmp_path):
        # Every decomposition of these runs, each sweep stack included, passes through the one
        # stacked decomposition in superop.
        decompose, shapes = superop._decompose_stack, []

        def recording(mats, name=None):
            shapes.append(mats.shape)
            return decompose(mats, name)

        monkeypatch.setattr(superop, "_decompose_stack", recording)
        shrunk = {"fig2": {"t_points": 11}, "fig3a": {"theta_points": 5},
                  "fig4a": {"tau_points": 4}, "fig5": {"t_points": 11}}
        for preset, override in shrunk.items():
            run(ExperimentConfig.from_dict(presets()[preset] | override), tmp_path)
        # fig2 and fig4a decompose their generator; fig3a has a stack per eta, fig4a one of
        # its periods and fig5 one of its angles.
        assert shapes == [(1, 6, 6), (5, 6, 6), (5, 6, 6), (1, 6, 6), (4, 6, 6), (3, 6, 6)]

    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"experiment": "enum-verify"})
        run(cfg, tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(cli.os, "replace", failing)
        with pytest.raises(OSError, match="replace failed"):
            cli._atomic_write(tmp_path / "out" / "table.csv", "x\n")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("columns, units, width", [
        pytest.param(("a", "b"), ("1", "1"), 3, id="rows-wider"),
        pytest.param(("a", "b"), ("1",), 2, id="units-fewer"),
        pytest.param(("a",), ("1", "1"), 1, id="units-more"),
    ])
    def test_table_widths_must_agree(self, columns, units, width):
        cfg = ExperimentConfig.from_dict({"experiment": "enum-verify"})
        with pytest.raises(ValueError, match="^column, unit and row-width counts must agree$"):
            cli.ResultTable("table", columns, units, np.zeros((2, width)), cfg)

    def test_rates_sweep_at_given_angles(self, tmp_path):
        # Each eta's rows are angle_sweep's at those angles, in the order given.
        thetas, etas = [1.2, 0.1, 0.7], [0.0, 0.1]
        cfg = ExperimentConfig.from_dict({"experiment": "rates-sweep", "gamma": 0.5, "g": 0.1,
                                          "theta_values": thetas, "eta_values": etas})
        rows = np.loadtxt(run(cfg, tmp_path), delimiter=",", skiprows=2)
        assert rows.shape == (len(etas) * len(thetas), 5)
        for k, eta in enumerate(etas):
            s = angle_sweep(1.0, 0.1, 0.5, eta, np.array(thetas))
            want = np.column_stack([s.theta, np.full_like(s.theta, eta), s.rate_z, s.rate_xy,
                                    s.rate_2_star])
            # rate_2_star is NaN where eta != 0 (the perturbative form takes eta = 0 only)
            assert np.array_equal(rows[k * len(thetas):(k + 1) * len(thetas)], want,
                                  equal_nan=True)


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

    def test_threads_only_for_monte_carlo(self, tmp_path):
        # --threads sets workers, which only mc-verify reads; --seed is taken everywhere.
        result = CliRunner().invoke(main, ["fig2", "--threads", "2", "--out", str(tmp_path)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "workers: not read by free-decay" in result.output
        assert not (tmp_path / "fig2.csv").exists()
        result = CliRunner().invoke(main, ["fig2", "--seed", "5", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        config = tmp_path / "mc.json"
        config.write_text(json.dumps(MC_VERIFY | {"n_samples": 200}))
        result = CliRunner().invoke(main, ["mc-verify", "--config", str(config), "--threads", "2",
                                           "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("text, line", [
        pytest.param("{not json", "Error: config parse error: ", id="not-json"),
        pytest.param("[1, 2]", "Error: config file must hold a JSON object", id="json-list"),
    ])
    def test_config_file_that_is_no_object_refused(self, tmp_path, text, line):
        config = tmp_path / "bad.json"
        config.write_text(text)
        result = CliRunner().invoke(main, ["fig2", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.startswith(line)
        assert not (tmp_path / "fig2.csv").exists()

    def test_failing_run_names_its_experiment(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("enumeration broke")

        monkeypatch.setattr(cli, "enumerate_sequences", failing)
        result = CliRunner().invoke(main, ["enum-verify", "--out", str(tmp_path)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output == "Error: enum-verify failed: enumeration broke\n"
        assert not (tmp_path / "enum-verify.csv").exists()

    def test_enum_verify_prints_error_line(self, tmp_path):
        result = CliRunner().invoke(main, ["enum-verify", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "max abs error" in result.output
