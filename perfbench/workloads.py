"""Seeded workloads of the qtel benchmark.

A workload turns a seed into an endless series of cycles.  A cycle is a
fixed mix of work items whose parameters are drawn from the seed, so
every seed gives the same mix and the same amount of work.  The program
receives only the generated specs and configs.  Items call qtel through
module attributes (``superop.spectral_decomposition``), so the tracer's
wrappers see them.

Each workload offers ``cycle(rng, tiny)``, ``run(item, item_id,
out_dir)`` and ``check(item, item_id, output, out_dir)``; ``check``
returns a list of problems, empty when the output is correct.  Its
``pace_kernel`` names the kernel of ``pace.py`` that scales its
timings.  ``tiny`` shrinks every item for the smoke tests.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

from qtel import analysis, cli, dynamics, model, oracle, rates, superop

# Tolerances of the acceptance suite (tests/test_acceptance.py).
BALL_TOL = 1e-9  # criterion 10: transfer maps the Bloch ball into itself
PROPAGATOR_TOL = 1e-10  # criterion 10: propagators agree (semigroup law)
ENUM_TOL = 1e-12  # criterion 01: enumeration equals the powered step operator
MC_NSIGMA = 5.0  # criterion 09: Monte Carlo within 5 sigma

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])


def _interleave(counts: dict) -> list:
    """Keys repeated by count, spread evenly through one cycle."""
    slots = [((k + 0.5) / n, key) for key, n in counts.items() for k in range(n)]
    return [key for _, key in sorted(slots)]


def _lift(n_fluct: int, axis, angle: float) -> np.ndarray:
    """Pulse on the joint space from the matrix exponential of the axis generator."""
    x, y, z = axis
    cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.kron(np.eye(2**n_fluct), scipy.linalg.expm(angle * cross))


def _boundary(sys) -> tuple[np.ndarray, np.ndarray]:
    """Readout (3 x d) and preparation (d x 3) maps built from the specs."""
    readout, prepare = np.ones(1), np.ones(1)
    for f in sys.fluctuators:
        p_plus = (f.gamma - f.eta) / (2.0 * f.gamma)
        readout = np.kron(readout, [1.0 / math.sqrt(2.0)] * 2)
        prepare = np.kron(prepare, [math.sqrt(2.0) * p_plus, math.sqrt(2.0) * (1.0 - p_plus)])
    return np.kron(readout, np.eye(3)), np.kron(prepare.reshape(-1, 1), np.eye(3))


def _max_error(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


class PaperSweeps:
    """The seven figure presets as CLI runs with jittered physics.

    Every item is one ``cli.run`` call on a config shaped like a preset:
    same experiment type and grid sizes, with ``g``, ``gamma``, ``eta``
    and ``theta`` jittered within the preset's regime.  Echo items then
    run step detection and an exponential fit on each curve.
    """

    tail_percentile = 95
    pace_kernel = "mixed"
    # Items per cycle.  The two cheapest presets run twice, so four items
    # cost less than fig4b and four more: the median lies inside fig4b's
    # spread instead of on the edge of the four slowest presets, whose
    # costs overlap.
    MIX = {"fig2": 2, "fig3a": 1, "fig3b": 1, "fig4a": 2, "fig4b": 1, "fig5": 1, "fig6": 1}
    # The byte-identical re-run check covers one item in RERUN_EVERY.
    RERUN_EVERY = 10
    TINY_GRID = {"t_points": 41, "theta_points": 3, "tau_points": 3}

    def cycle(self, rng, tiny=False):
        items = []
        catalog = cli.presets()
        for name in _interleave(self.MIX):
            raw = catalog[name]
            cfg = dict(raw)
            g_scale, gamma_scale = rng.uniform(0.9, 1.1, size=2)
            cfg["g"] = raw["g"] * g_scale
            cfg["gamma"] = raw["gamma"] * gamma_scale
            # eta keeps its ratio to gamma up to 10%, so |eta| <= gamma holds.
            if "eta" in raw:
                cfg["eta"] = raw["eta"] * gamma_scale * rng.uniform(0.9, 1.1)
            if "eta_values" in raw:
                cfg["eta_values"] = [
                    e * gamma_scale * rng.uniform(0.9, 1.1) for e in raw["eta_values"]
                ]
            if "theta" in raw:
                cfg["theta"] = float(
                    np.clip(raw["theta"] + rng.uniform(-0.05, 0.05), 0.0, np.pi / 2))
            if "theta_values" in raw:
                cfg["theta_values"] = [
                    float(np.clip(th + rng.uniform(-0.05, 0.05), 0.0, np.pi / 2))
                    for th in raw["theta_values"]
                ]
            # Pulse spacing scales with 1/g, so g * tau keeps its range.
            if "tau_min" in raw:
                cfg["tau_min"] = raw["tau_min"] / g_scale
                cfg["tau_max"] = raw["tau_max"] / g_scale
            if tiny:
                cfg.update({k: v for k, v in self.TINY_GRID.items() if k in cfg})
            items.append((name, cfg))
        return items

    def run(self, item, item_id, out_dir):
        name, raw = item
        cfg = cli.ExperimentConfig.from_dict(raw)
        path = cli.run(cfg, out_dir, name=f"{item_id:06d}-{name}")
        if cfg.experiment == "echo":
            data = np.loadtxt(path, delimiter=",", skiprows=2)
            for theta in cfg.theta_values:
                curve = data[data[:, 0] == theta]
                analysis.detect_steps(curve[:, 1], curve[:, 2])
                analysis.fit_exponential_decay(curve[:, 1], curve[:, 2])
        return path

    def check(self, item, item_id, path, out_dir):
        problems = []
        data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        experiment = item[1]["experiment"]
        if experiment == "free-decay":
            norm = float(np.linalg.norm(data[:, 1:4], axis=1).max())
            if not norm <= 1.0 + BALL_TOL:
                problems.append(f"Bloch vector leaves the ball: |n| = {norm!r}")
        elif experiment == "echo":
            peak = float(np.abs(data[:, 2]).max())
            if not peak <= 1.0 + BALL_TOL:
                problems.append(f"echo signal leaves the ball: {peak!r}")
        else:
            # rates-sweep: inv_t1, inv_t2; bang-bang: rate_z, rate_xy
            cols = data[:, 2:4] if experiment == "rates-sweep" else data[:, 1:3]
            if not np.all(cols >= 0.0):
                problems.append(f"negative or non-finite rate: min {np.nanmin(cols)!r}")
        if item_id % self.RERUN_EVERY == 0:
            meta = json.loads(path.with_name(path.stem + ".meta.json").read_text())
            again = cli.run(cli.ExperimentConfig.from_dict(meta["config"]), out_dir,
                            name=path.stem + "-rerun")
            if again.read_bytes() != path.read_bytes():
                problems.append("re-running the embedded config changed the CSV")
        return problems


class ManyFluctuators:
    """Single operating points of N = 4..8 fluctuators, d = 3 * 2**N.

    Switching rates are log-uniform over two decades (the 1/f picture);
    each coupling is tilted from the field axis by a uniform polar angle
    in [0, pi/2] at a uniform azimuth; imbalances reach half the rate.
    Each item builds and diagonalises the generator, extracts rates and
    evaluates 501 transfer matrices; items up to N = 7 add a 51-point
    echo, bang-bang trains at three spacings and a CPMG schedule.  N = 8
    items stop after the transfer matrices.
    """

    tail_percentile = 90
    pace_kernel = "blend"
    # Items per cycle: each N takes a comparable share of the cycle,
    # about 3.3 s on a 2-core Xeon with one BLAS thread.
    MIX = {4: 90, 5: 30, 6: 6, 7: 1, 8: 1}
    TINY_MIX = {2: 2, 3: 1, 4: 1}
    MAX_PULSED_N = 7
    TIMES = np.linspace(0.0, 50.0, 501)
    ECHO_TIMES = np.linspace(0.0, 40.0, 51)
    BANG_BANG_TAUS = (0.5, 1.5, 4.0)
    BANG_BANG_PULSES = 8
    CPMG_PULSES = 4

    def _system(self, rng, n):
        flucts = []
        for _ in range(n):
            gamma = 10.0 ** rng.uniform(-2.0, 0.0)
            theta, phi = rng.uniform(0.0, np.pi / 2), rng.uniform(0.0, 2 * np.pi)
            g = rng.uniform(0.05, 0.3) * np.array(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
            eta = gamma * rng.uniform(-0.5, 0.5)
            flucts.append(model.FluctuatorSpec(g=g, gamma=gamma, eta=eta))
        return model.SystemSpec(b0=1.0, fluctuators=tuple(flucts))

    def cycle(self, rng, tiny=False):
        items = []
        for n in _interleave(self.TINY_MIX if tiny else self.MIX):
            cpmg_tau = rng.uniform(1.0, 3.0)
            events = [(0.0, X_AXIS, np.pi / 2)] + [
                ((k + 0.5) * cpmg_tau, Y_AXIS, np.pi) for k in range(self.CPMG_PULSES)]
            items.append({
                "sys": self._system(rng, n),
                "taus": [tau * rng.uniform(0.9, 1.1) for tau in self.BANG_BANG_TAUS],
                "cpmg": dynamics.PulseSequence(events=tuple(events)),
                "t_final": self.CPMG_PULSES * cpmg_tau,
                # sampled points for the expm check
                "probe": int(rng.integers(1, len(self.TIMES))),
                "echo_probe": int(rng.integers(1, len(self.ECHO_TIMES))),
                "tau_probe": int(rng.integers(len(self.BANG_BANG_TAUS))),
            })
        return items

    def run(self, item, item_id, out_dir):
        sys = item["sys"]
        sd = superop.spectral_decomposition(superop.decoherence_generator(sys))
        out = {
            "rates": rates.extract_rates(sd),
            "transfer": superop.transfer_from_spectral(sd, self.TIMES),
        }
        if sys.n_fluctuators <= self.MAX_PULSED_N:
            out["echo"] = dynamics.echo_signal(sys, self.ECHO_TIMES, sd=sd)
            out["bang_bang"] = [
                dynamics.bang_bang_operator(sys, tau, self.BANG_BANG_PULSES, axis="y", sd=sd)
                for tau in item["taus"]]
            out["cpmg"] = dynamics.sequence_operator(sys, item["cpmg"], item["t_final"], sd=sd)
        return out

    def check(self, item, item_id, out, out_dir):
        """Sampled points against expm compositions of the same generator."""
        sys = item["sys"]
        n = sys.n_fluctuators
        gen = superop.decoherence_generator(sys).mat
        readout, prepare = _boundary(sys)

        def contract(full):
            return (readout @ full @ prepare).real

        def propagate(t):
            return scipy.linalg.expm(-t * gen)

        errors = {}
        k = item["probe"]
        errors["transfer"] = _max_error(out["transfer"][k], contract(propagate(self.TIMES[k])))
        if "echo" in out:
            j = item["echo_probe"]
            half, flip = _lift(n, X_AXIS, np.pi / 2), _lift(n, X_AXIS, np.pi)
            seg = propagate(0.5 * self.ECHO_TIMES[j])
            errors["echo"] = abs(out["echo"][j] - contract(half @ seg @ flip @ seg @ half)[2, 2])

            i = item["tau_probe"]
            period = propagate(item["taus"][i]) @ _lift(n, Y_AXIS, np.pi)
            errors["bang_bang"] = _max_error(
                out["bang_bang"][i].transfer,
                contract(np.linalg.matrix_power(period, self.BANG_BANG_PULSES)))

            composed, cursor = np.eye(len(gen)), 0.0
            for time, axis, angle in item["cpmg"].events:
                composed = _lift(n, axis, angle) @ propagate(time - cursor) @ composed
                cursor = time
            composed = propagate(item["t_final"] - cursor) @ composed
            errors["cpmg"] = _max_error(out["cpmg"], contract(composed))
        return [f"{name} differs from expm by {err:.3e} (N={n})"
                for name, err in errors.items() if not err <= PROPAGATOR_TOL]


class OracleChecks:
    """One fluctuator through the two oracles, alternating.

    Enumeration items run ``n_steps`` 14..18 (2**n sequences, well past
    the caches); Monte-Carlo items draw 1e5 trajectories on three probe
    times with two worker threads.
    """

    tail_percentile = 75
    pace_kernel = "mixed"
    ENUM_STEPS = (14, 15, 16, 17, 18)
    TINY_ENUM_STEPS = (8, 9)
    DT = 0.1
    MC_SAMPLES = 100_000
    TINY_MC_SAMPLES = 2_000
    MC_WORKERS = 2
    PROBES = (1.0, 5.0, 10.0)
    N0 = (1.0, 0.0, 0.0)

    @staticmethod
    def _system(rng, stratum, n_strata):
        # gamma is log-uniform over [0.05, 1], one stratum per item of a
        # cycle, so every cycle samples the whole range (MC cost grows
        # with gamma).
        lo = math.log10(0.05)
        gamma = 10.0 ** (lo * (1.0 - (stratum + rng.uniform()) / n_strata))
        theta = rng.uniform(0.2, 1.4)
        g = rng.uniform(0.1, 1.0) * np.array([np.sin(theta), 0.0, np.cos(theta)])
        flucts = (model.FluctuatorSpec(g=g, gamma=gamma, eta=gamma * rng.uniform(-0.5, 0.5)),)
        return model.SystemSpec(b0=1.0, fluctuators=flucts)

    def cycle(self, rng, tiny=False):
        steps = self.TINY_ENUM_STEPS if tiny else self.ENUM_STEPS
        samples = self.TINY_MC_SAMPLES if tiny else self.MC_SAMPLES
        gammas = rng.permutation(len(steps))
        items = []
        for k, n_steps in enumerate(steps):
            items.append(("enumerate", self._system(rng, k, len(steps)), n_steps))
            items.append(("sample", self._system(rng, gammas[k], len(steps)), samples,
                          int(rng.integers(2**63))))
        return items

    def run(self, item, item_id, out_dir):
        if item[0] == "enumerate":
            _, sys, n_steps = item
            return oracle.enumerate_sequences(sys, self.DT, n_steps)
        _, sys, n_samples, seed = item
        return oracle.sample_trajectories(sys, self.N0, self.PROBES, n_samples, seed,
                                          workers=self.MC_WORKERS)

    def check(self, item, item_id, out, out_dir):
        sys = item[1]
        readout, prepare = _boundary(sys)
        if item[0] == "enumerate":
            step = superop.discrete_transfer_operator(sys, self.DT).mat
            powered = (readout @ np.linalg.matrix_power(step, item[2]) @ prepare).real
            problems = []
            err = _max_error(out.t_matrix, powered)
            if not err <= ENUM_TOL:
                problems.append(f"enumeration differs from the powered step by {err:.3e}")
            if not abs(out.total_probability - 1.0) <= ENUM_TOL:
                problems.append(f"total probability {out.total_probability!r}")
            return problems
        sd = superop.spectral_decomposition(superop.decoherence_generator(sys))
        exact = superop.transfer_from_spectral(sd, self.PROBES) @ np.asarray(self.N0)
        err = np.abs(out.mean - exact)
        with np.errstate(divide="ignore", invalid="ignore"):
            nsigma = np.where(err == 0.0, 0.0, err / out.stderr)
        worst = float(nsigma.max())
        return [] if worst < MC_NSIGMA else [f"Monte Carlo off by {worst:.2f} sigma"]


WORKLOADS = {
    "paper-sweeps": PaperSweeps(),
    "many-fluctuators": ManyFluctuators(),
    "oracle-checks": OracleChecks(),
}
