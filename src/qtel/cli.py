"""Command-line experiment runner.

``qtel`` runs one experiment per invocation from a JSON config (or a
named built-in preset), computes the requested quantity and writes a
CSV table (header row + units row) plus a JSON metadata sidecar that
embeds the fully resolved config; re-running the embedded config with
the same seed reproduces the CSV byte for byte.

Experiments: free-decay, rates-sweep, bang-bang, echo, mc-verify,
enum-verify.  Each is one ``EXPERIMENTS`` entry: a runner that returns
the table's rows, the table's columns and units, and the config fields
the runner reads; ``run`` builds the ``ResultTable``.  Presets (fig2 ...
fig6) reproduce the library's reference figures at desk scale.

A config is checked in full before any work starts.  Each raw value must first have
the type its field is annotated with.  A field the experiment does not read must keep
its default (``experiment``, ``seed`` and an all-zero ``white_noise`` excepted), as must
``g`` and ``theta`` beside ``g_vector`` and ``theta_points`` beside ``theta_values``,
which override them.  The module checks only its own fields' rules; each physical
value is checked by building what the run builds, so the range checks live once, in
the library's spec dataclasses and ``model._switch_matrix``, and their messages are
reported as they are.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import tempfile
import time
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import click
import numpy as np

from . import __version__
from .dynamics import bang_bang_operator, echo_signal, free_trajectory, to_rotating_frame
from .model import FluctuatorSpec, SystemSpec, _single_fluctuator, _switch_matrix, as_bloch_array
from .oracle import MAX_ENUM_STEPS, enumerate_sequences, sample_trajectories
from .rates import angle_sweep, extract_rates
from .superop import (
    KIND_GENERATOR,
    Superoperator,
    decoherence_generator,
    discrete_transfer_operator,
    spectral_decomposition,
    transfer_from_spectral,
    _generator_stack,
    _sweep,
)

__all__ = ["ExperimentConfig", "ResultTable", "ConfigError", "presets", "run", "main"]

class ConfigError(ValueError):
    """Invalid experiment config; message aggregates every problem found.

    Each line reads ``<field>: <message>``.  Rules of the CLI's own fields
    are checked in this module; a physical value's line carries the
    ``ValueError`` message of the library check that rejected it.
    """


@dataclass
class ExperimentConfig:
    """Fully resolved description of one experiment run.

    Geometry is given either as an explicit coupling vector ``g_vector``
    or as a magnitude ``g`` with working-point angle(s) ``theta``
    (radians between the coupling and the static-field axis).  Each
    experiment reads only the fields its ``EXPERIMENTS`` entry names;
    ``from_dict`` refuses any other field set away from its default.
    """

    experiment: str
    b0: float = 1.0
    gamma: float = 0.1
    eta: float = 0.0
    g: float | None = None
    g_vector: list[float] | None = None
    theta: float | None = None
    theta_values: list[float] = field(default_factory=list)
    theta_points: int = 0
    eta_values: list[float] = field(default_factory=list)
    white_noise: list[float] | None = None
    initial: list[float] = field(default_factory=lambda: [0.0, 0.0, 1.0])
    frame: str = "lab"
    t_max: float = 0.0
    t_points: int = 0
    tau_min: float = 0.0
    tau_max: float = 0.0
    tau_points: int = 0
    tau_spacing: str = "linear"
    pulse_axis: str = "y"
    dt: float = 0.1
    n_steps: int = 12
    probe_times: list[float] = field(default_factory=list)
    n_samples: int = 100000
    seed: int = 0
    workers: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        errors = []
        names = _type_hints(cls)  # one per field, resolved once
        unknown = sorted(k for k in raw if k not in names)
        if unknown:
            errors.append(f"unknown config fields: {', '.join(unknown)}")
        known = {k: v for k, v in raw.items() if k in names}
        if "experiment" not in known:
            errors.append("experiment: required")
            raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
        type_errors = _type_errors(cls, known)
        if type_errors:  # a wrongly typed value would break the checks below
            raise ConfigError("invalid config:\n  " + "\n  ".join(errors + type_errors))
        errors.extend(f"{k}: must be finite" for k, v in known.items() if not all(  # NaN, ±Infinity
            math.isfinite(x) for x in (v if isinstance(v, list) else [v]) if isinstance(x, float)))
        cfg = cls(**known)
        errors.extend(cfg._validate())
        if errors:  # each distinct line once: a grid or list can repeat a library message
            raise ConfigError("invalid config:\n  " + "\n  ".join(dict.fromkeys(errors)))
        return cfg

    def _validate(self) -> list[str]:
        if self.experiment not in EXPERIMENTS:
            return [f"experiment: must be one of {', '.join(EXPERIMENTS)}"]
        reads = EXPERIMENTS[self.experiment][3]
        # One rule for the fields the run does not read: each keeps its default.  White noise
        # of variance 0 is none at all.
        errors = [f"{name}: not read by {self.experiment}"
                  for name, default in _UNREAD[self.experiment] if getattr(self, name) != default
                  and not (name == "white_noise" and not any(self.white_noise))]
        if not 0 <= self.seed < 2**64:
            errors.append("seed: must fit in an unsigned 64-bit integer")
        if "workers" in reads and self.workers < 1:
            errors.append("workers: must be >= 1")
        coupled = "g_vector" in reads and self.g_vector is not None
        errors.extend(f"{name}: not read when g_vector is given"
                      for name in ("g", "theta") if coupled and getattr(self, name) is not None)
        if "theta_points" in reads and self.theta_values and self.theta_points:
            errors.append("theta_points: not read when theta_values is given")
        if "g" in reads and self.g is None and not coupled:
            errors.append(f"{'g or g_vector' if 'g_vector' in reads else 'g'}: required")
        elif "theta" in reads and self.theta is None and not coupled:
            errors.append("theta: required when g is given as a magnitude")
        if "theta_values" in reads and self.theta_points < 2 and not self.theta_values:
            either = "theta_points or " if "theta_points" in reads else ""
            errors.append(f"{either}theta_values: required")
        if "eta_values" in reads and not self.eta_values:
            errors.append("eta_values: required (use [0.0] for symmetric switching)")
        if "t_max" in reads and (self.t_max <= 0 or self.t_points < 2):
            errors.append("t_max and t_points: required (t_max > 0, t_points >= 2)")
        for name, choices in _CHOICES.items():
            if name in reads and getattr(self, name) not in choices:
                errors.append(f"{name}: must be {' or '.join(map(repr, choices))}")
        if "initial" in reads:
            _check(errors, "initial", as_bloch_array, self.initial)
        if "tau_points" in reads and (
                self.tau_points < 2 or self.tau_min <= 0 or self.tau_max <= self.tau_min):
            errors.append("tau_min/tau_max/tau_points: required increasing grid, tau_min > 0")
        if "probe_times" in reads:
            if not self.probe_times:
                errors.append("probe_times: required")
            elif any(b <= a for a, b in zip([0.0, *self.probe_times], self.probe_times)):
                errors.append("probe_times: must be positive and strictly increasing")
        if "n_samples" in reads and self.n_samples < 2:
            errors.append("n_samples: must be >= 2")
        if "n_steps" in reads:
            if not 1 <= self.n_steps <= MAX_ENUM_STEPS:
                errors.append(f"n_steps: must be in [1, {MAX_ENUM_STEPS}]")
            for gamma, eta, _, _ in ENUM_VERIFY_GRID:
                _check(errors, "dt", _switch_matrix, gamma, eta, self.dt)
        # Physical values: build what the run builds; a zero coupling stands in for a missing one.
        gvec = np.zeros(3) if self.g_vector is None and None in (self.g, self.theta) else None
        try:
            sys = self.system(g_vector=gvec)
        except ValueError as exc:  # each spec message opens with the parameter it rejects
            name = str(exc).split()[0].strip("|").replace("-", "_")
            g_field = "g" if self.g_vector is None else "g_vector"
            errors.append(f"{g_field if name == 'g' else name}: {exc}")
            return errors
        for eta in self.eta_values:  # only eta differs from the system just built
            _check(errors, "eta_values", self.system, gvec, eta)
        if "n_samples" in reads:  # the sampler takes one fluctuator and no white noise
            _check(errors, "white_noise", _single_fluctuator, sys)
        return errors

    def coupling_vector(self) -> np.ndarray:
        if self.g_vector is not None:
            return np.asarray(self.g_vector, dtype=float)
        return _coupling(self.g, self.theta)

    def system(self, g_vector=None, eta=None) -> SystemSpec:
        gvec = self.coupling_vector() if g_vector is None else np.asarray(g_vector, float)
        return SystemSpec(
            b0=self.b0,
            fluctuators=(
                FluctuatorSpec(g=gvec, gamma=self.gamma, eta=self.eta if eta is None else eta),
            ),
            white_noise=self.white_noise,
        )

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            out[f.name] = value
        return out


@dataclass(frozen=True)
class ResultTable:
    """Columnar numeric results with units and reproduction metadata."""

    name: str
    columns: tuple[str, ...]
    units: tuple[str, ...]
    rows: np.ndarray
    config: ExperimentConfig

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.shape[1] != len(self.columns) or len(self.units) != len(self.columns):
            raise ValueError("column, unit and row-width counts must agree")
        object.__setattr__(self, "rows", rows)

    def csv_text(self) -> str:
        # 17 significant digits: lossless round-trip for IEEE doubles.  The rows go through
        # one % over a repeated row template.  A column that repeats values, such as a sweep
        # grid, enters as text with each distinct value formatted once; values match by bit
        # pattern, so -0.0 and 0.0 stay apart.  One argsort over the repeated columns, laid
        # out as flat rows, gives each one's distinct values and every row's index among them.
        cells, formats = self.rows.astype(object), ["%.17g"] * len(self.columns)
        bits = self.rows.view(np.int64)
        ordered = np.sort(bits, axis=0)
        repeated = np.flatnonzero((ordered[1:] == ordered[:-1]).any(axis=0))
        if repeated.size:
            columns = bits.T[repeated]
            order = np.argsort(columns, axis=1) + columns.shape[1] * np.arange(len(repeated))[:, None]
            values = columns.ravel()[order]
            opens = np.ones(values.shape, bool)  # the first of each run of equal values
            opens[:, 1:] = values[:, 1:] != values[:, :-1]
            index = np.empty(columns.size, np.intp)
            index[order] = np.cumsum(opens, axis=1) - 1
            index = index.reshape(columns.shape)
        for k, j in enumerate(repeated):
            distinct = values[k, opens[k]]
            text = "\n".join(["%.17g"] * len(distinct)) % tuple(distinct.view(float).tolist())
            cells[:, j] = np.array(text.split("\n"), dtype=object)[index[k]]
            formats[j] = "%s"
        body = "".join(["\n" + ",".join(formats)] * len(self.rows)) % tuple(cells.ravel().tolist())
        return ",".join(self.columns) + "\n" + ",".join(self.units) + body + "\n"

    def metadata(self, wall_time_s: float) -> dict:
        return {
            "artifact": "qtel",
            "version": __version__,
            "table": self.name,
            "columns": list(self.columns),
            "units": list(self.units),
            "n_rows": int(self.rows.shape[0]),
            "seed": self.config.seed,
            "wall_time_s": wall_time_s,
            "config": self.config.to_dict(),
        }


# Resolving the string annotations costs about 0.5 ms; a config class is resolved once.
_type_hints = functools.cache(typing.get_type_hints)


def _type_errors(cls, raw: dict) -> list[str]:
    """One line per raw value that its field's annotation does not admit.

    An ``int`` field takes a non-bool integer, a ``float`` field a real number
    and a ``list[float]`` field a list of them; ``None`` passes where the
    annotation allows it.  ``str`` fields are left to ``_validate``.
    """
    errors = []
    for name, hint in _type_hints(cls).items():
        options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if name not in raw or (raw[name] is None and type(None) in options):
            continue
        value, kind = raw[name], options[0]
        if kind is int and not _is_number(value, numbers.Integral):
            errors.append(f"{name}: must be an integer")
        elif kind is float and not _is_number(value, numbers.Real):
            errors.append(f"{name}: must be a number")
        elif kind == list[float] and not (
                isinstance(value, list) and all(_is_number(v, numbers.Real) for v in value)):
            errors.append(f"{name}: must be a list of numbers")
    return errors


def _coupling(g: float, theta: float) -> np.ndarray:
    """The coupling vector of magnitude ``g`` at angle ``theta`` from the static field."""
    return g * np.array([math.sin(theta), 0.0, math.cos(theta)])


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _check(errors: list[str], name: str, check, *args):
    """Run a library check; its ``ValueError`` becomes the line ``<name>: <message>``."""
    try:
        check(*args)
    except ValueError as exc:
        errors.append(f"{name}: {exc}")


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# experiment payloads


def _run_free_decay(cfg: ExperimentConfig) -> np.ndarray:
    times = np.linspace(0.0, cfg.t_max, cfg.t_points)
    traj = free_trajectory(cfg.system(), np.asarray(cfg.initial, float), times)
    if cfg.frame == "rotating":
        traj = to_rotating_frame(traj, cfg.b0)
    return np.column_stack([traj.times, traj.points])


def _run_rates_sweep(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.theta_values:
        thetas = np.asarray(cfg.theta_values, dtype=float)
    else:
        thetas = np.linspace(0.0, np.pi / 2.0, cfg.theta_points)
    sweeps = [angle_sweep(cfg.b0, cfg.g, cfg.gamma, eta, thetas) for eta in cfg.eta_values]
    return np.concatenate([
        np.column_stack([s.theta, np.full_like(s.theta, s.eta), s.rate_z, s.rate_xy, s.rate_2_star])
        for s in sweeps
    ])


def _run_bang_bang(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.tau_spacing == "log":
        taus = np.geomspace(cfg.tau_min, cfg.tau_max, cfg.tau_points)
    else:
        taus = np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_points)
    sys = cfg.system()
    sd = spectral_decomposition(decoherence_generator(sys))
    free = extract_rates(sd)
    pulsed = bang_bang_operator(sys, taus, 1, cfg.pulse_axis, sd)
    rate_z = np.array([result.rates.rate_z for result in pulsed])
    rate_xy = np.array([result.rates.rate_xy for result in pulsed])
    norm_z = rate_z / free.rate_z if free.rate_z > 0 else np.full_like(taus, np.nan)
    norm_xy = rate_xy / free.rate_xy if free.rate_xy > 0 else np.full_like(taus, np.nan)
    return np.column_stack([taus, rate_z, rate_xy, norm_z, norm_xy])


def _run_echo(cfg: ExperimentConfig) -> np.ndarray:
    times = np.linspace(0.0, cfg.t_max, cfg.t_points)
    thetas = np.asarray(cfg.theta_values, dtype=float)
    couplings = np.array([_coupling(cfg.g, theta) for theta in thetas])
    systems = [cfg.system(g_vector=gvec) for gvec in couplings]
    # The angles differ only in their coupling: their generators are built and decomposed
    # as stacks, and each angle's echo reads its own member.
    signals = []
    stacks = _sweep(lambda block: _generator_stack(systems[0], couplings[block, None, :]),
                    len(systems), systems[0].dimension)
    for block, mats, spectra, _ in stacks:
        for b, sys in enumerate(systems[block]):
            op = Superoperator(mat=mats[b], kind=KIND_GENERATOR, system=sys)
            signals.append(echo_signal(sys, times, sd=spectra.member(b, op)))
    return np.column_stack([np.repeat(thetas, len(times)), np.tile(times, len(thetas)),
                            np.concatenate(signals)])


def _run_mc_verify(cfg: ExperimentConfig) -> np.ndarray:
    sys = cfg.system()
    times = np.asarray(cfg.probe_times, dtype=float)
    initial = np.asarray(cfg.initial, float)
    estimate = sample_trajectories(sys, initial, times, cfg.n_samples, cfg.seed,
                                   workers=cfg.workers)
    sd = spectral_decomposition(decoherence_generator(sys))
    exact = transfer_from_spectral(sd, times) @ initial
    # One row per probe time and component; nsigma is 0 where the estimate has no spread.
    mean, sigma = estimate.mean, estimate.stderr
    with np.errstate(divide="ignore", invalid="ignore"):
        nsigma = np.where(sigma > 0, np.abs(mean - exact) / sigma, 0.0)
    return np.column_stack([np.repeat(times, 3), np.tile(np.arange(3.0), len(times)),
                            mean.ravel(), sigma.ravel(), exact.ravel(), nsigma.ravel()])


# Parameter grid exercised by enum-verify: (gamma, eta, g_magnitude, theta).
ENUM_VERIFY_GRID = (
    (0.1, 0.0, 0.3, 0.0),
    (0.1, 0.0, 0.3, math.pi / 4),
    (0.1, 0.0, 0.3, math.pi / 2),
    (0.1, 0.05, 0.3, math.pi / 4),
    (0.1, 0.1, 0.3, math.pi / 3),
    (0.5, 0.0, 0.1, math.pi / 4),
    (0.5, 0.2, 0.1, math.pi / 2),
    (0.5, 0.5, 0.1, 0.0),
    (1.0, 0.0, 2.0, math.pi / 4),
    (0.05, 0.02, 0.8, 1.0),
)


def _run_enum_verify(cfg: ExperimentConfig) -> np.ndarray:
    worst = 0.0
    worst_prob = 0.0
    for gamma, eta, g, theta in ENUM_VERIFY_GRID:
        sys = SystemSpec(
            b0=cfg.b0, fluctuators=(FluctuatorSpec(g=_coupling(g, theta), gamma=gamma, eta=eta),)
        )
        enum = enumerate_sequences(sys, cfg.dt, cfg.n_steps)
        step = discrete_transfer_operator(sys, cfg.dt)
        readout, prepare = step.boundary
        powered = np.linalg.matrix_power(step.mat, cfg.n_steps)
        reference = readout @ powered @ prepare
        worst = max(worst, float(np.abs(enum.t_matrix - reference).max()))
        worst_prob = max(worst_prob, abs(enum.total_probability - 1.0))
    return np.array([[len(ENUM_VERIFY_GRID), cfg.n_steps, cfg.dt, worst, worst_prob]])


# Each experiment is declared here once: the runner that returns its rows, the table's
# columns and units, and the config fields the runner reads (_SYSTEM: those that
# ExperimentConfig.system reads).  Config checks and the CLI read the names in this order.
_SYSTEM = ("b0", "gamma", "eta", "g", "g_vector", "theta", "white_noise")
EXPERIMENTS = {
    "free-decay": (_run_free_decay, ("t", "n_x", "n_y", "n_z"), ("1/B0", "1", "1", "1"),
                   {*_SYSTEM, "initial", "frame", "t_max", "t_points"}),
    "rates-sweep": (_run_rates_sweep, ("theta", "eta", "inv_t1", "inv_t2", "inv_t2_star"),
                    ("rad", "B0", "B0", "B0", "B0"),
                    {"b0", "gamma", "g", "theta_values", "theta_points", "eta_values"}),
    "bang-bang": (_run_bang_bang, ("tau", "rate_z", "rate_xy", "norm_rate_z", "norm_rate_xy"),
                  ("1/B0", "B0", "B0", "1", "1"),
                  {*_SYSTEM, "tau_min", "tau_max", "tau_points", "tau_spacing", "pulse_axis"}),
    "echo": (_run_echo, ("theta", "t", "signal"), ("rad", "1/B0", "1"),
             {"b0", "gamma", "eta", "g", "white_noise", "theta_values", "t_max", "t_points"}),
    "mc-verify": (_run_mc_verify, ("t", "component", "mc_mean", "mc_stderr", "exact", "nsigma"),
                  ("1/B0", "0=x 1=y 2=z", "1", "1", "1", "1"),
                  {*_SYSTEM, "initial", "probe_times", "n_samples", "workers"}),
    "enum-verify": (_run_enum_verify,
                    ("n_param_sets", "n_steps", "dt", "max_abs_error", "max_prob_error"),
                    ("1", "1", "1/B0", "1", "1"), {"b0", "dt", "n_steps"}),
}
# The fields each experiment does not read, with their defaults, built once.  experiment
# and seed are never among them: every sidecar records both, and every target takes --seed.
_UNREAD = {experiment: [(name, default) for name, default in vars(ExperimentConfig("")).items()
                        if name not in {*reads, "experiment", "seed"}]
           for experiment, (*_, reads) in EXPERIMENTS.items()}
# The values each string field takes.
_CHOICES = {"frame": ("lab", "rotating"), "tau_spacing": ("linear", "log"),
            "pulse_axis": ("x", "y")}


def run(cfg: ExperimentConfig, out_dir, name: str | None = None) -> Path:
    """Execute one experiment and write `<name>.csv` + `<name>.meta.json`.

    Returns the CSV path.  Outputs are written atomically and are
    byte-identical across re-runs of the same config and seed.
    """
    start = time.perf_counter()
    runner, columns, units, _ = EXPERIMENTS[cfg.experiment]
    table = ResultTable(cfg.experiment, columns, units, runner(cfg), cfg)
    wall = time.perf_counter() - start
    out_dir = Path(out_dir)
    stem = name or cfg.experiment
    csv_path = out_dir / f"{stem}.csv"
    _atomic_write(csv_path, table.csv_text())
    meta = json.dumps(table.metadata(wall), indent=2, sort_keys=True)
    _atomic_write(out_dir / f"{stem}.meta.json", meta + "\n")
    return csv_path


# ---------------------------------------------------------------------------
# presets reproducing the reference figures


def presets() -> dict[str, dict]:
    """Named built-in experiment configs.

    Each preset regenerates one reference dataset: free decay at the
    mixed working point (fig2), rate sweeps in the weak and strong
    coupling regimes (fig3a/fig3b), bang-bang suppression for slow and
    fast noise (fig4a/fig4b), and echo decay in the staircase and
    exponential regimes (fig5/fig6).
    """
    return {
        "fig2": {
            "experiment": "free-decay",
            "b0": 1.0, "gamma": 0.1, "eta": 0.0, "g": 0.3, "theta": math.pi / 4,
            "initial": [1.0, 0.0, 0.0], "frame": "rotating",
            "t_max": 60.0, "t_points": 601,
        },
        "fig3a": {
            "experiment": "rates-sweep",
            "b0": 1.0, "gamma": 0.5, "g": 0.1,
            "theta_points": 61, "eta_values": [0.0, 0.1],
        },
        "fig3b": {
            "experiment": "rates-sweep",
            "b0": 1.0, "gamma": 0.1, "g": 0.3,
            "theta_points": 61, "eta_values": [0.0, 0.05],
        },
        "fig4a": {
            "experiment": "bang-bang",
            "b0": 1.0, "gamma": 0.1, "eta": 0.0, "g": 0.03, "theta": math.pi / 4,
            "pulse_axis": "y", "tau_min": 0.1 / 0.03, "tau_max": 10.0 / 0.03,
            "tau_points": 41, "tau_spacing": "log",
        },
        "fig4b": {
            "experiment": "bang-bang",
            "b0": 1.0, "gamma": 0.1, "eta": 0.0, "g": 3.0, "theta": math.pi / 4,
            "pulse_axis": "y", "tau_min": 0.05, "tau_max": 4.0,
            "tau_points": 120, "tau_spacing": "linear",
        },
        "fig5": {
            "experiment": "echo",
            "b0": 1.0, "gamma": 0.1, "g": 0.8,
            "theta_values": [0.0, math.pi / 4, math.pi / 2],
            "t_max": 40.0, "t_points": 801,
        },
        "fig6": {
            "experiment": "echo",
            "b0": 1.0, "gamma": 0.1, "g": 0.08,
            "theta_values": [0.0, math.pi / 4, math.pi / 2],
            "t_max": 100.0, "t_points": 1001,
        },
    }


@click.command()
@click.argument("target")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON config file; overrides preset fields.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="qtel-out",
              show_default=True, help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the RNG seed.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for Monte-Carlo sampling (mc-verify).")
def main(target, config_path, out_dir, seed, threads):
    """Run the experiment or preset named TARGET.

    TARGET is an experiment type (free-decay, rates-sweep, bang-bang,
    echo, mc-verify, enum-verify) configured via --config, or a preset
    name (fig2, fig3a, fig3b, fig4a, fig4b, fig5, fig6).  Use
    'list' to print the available presets.
    """
    catalog = presets()
    if target == "list":
        for name, raw in catalog.items():
            click.echo(f"{name}: {raw['experiment']}")
        return

    raw: dict = {}
    if target in catalog:
        raw.update(catalog[target])
    elif target in EXPERIMENTS:
        raw["experiment"] = target
    else:
        raise click.ClickException(
            f"unknown target {target!r}; expected an experiment "
            f"({', '.join(EXPERIMENTS)}) or a preset ({', '.join(catalog)})"
        )
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as handle:
            try:
                overrides = json.load(handle)
            except json.JSONDecodeError as exc:
                raise click.ClickException(f"config parse error: {exc}") from exc
        if not isinstance(overrides, dict):
            raise click.ClickException("config file must hold a JSON object")
        raw.update(overrides)
    if seed is not None:
        raw["seed"] = seed
    if threads != 1:
        raw["workers"] = threads

    try:
        cfg = ExperimentConfig.from_dict(raw)
    except (ConfigError, TypeError) as exc:
        raise click.ClickException(str(exc)) from exc

    try:
        csv_path = run(cfg, out_dir, name=target if target in catalog else None)
    except Exception as exc:
        raise click.ClickException(f"{cfg.experiment} failed: {exc}") from exc
    click.echo(f"wrote {csv_path}")
    if cfg.experiment == "enum-verify":
        table = np.loadtxt(csv_path, delimiter=",", skiprows=2).reshape(-1)
        click.echo(f"max abs error = {table[3]:.3e}")


if __name__ == "__main__":
    main()
