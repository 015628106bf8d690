"""Span tracing of qtel's public functions, installed from outside.

The tracer replaces every public function of the seven qtel modules with
a wrapper that records one span per call: name, start, end, parent span
and work-item id.  The replacement is made in every qtel namespace that
holds the function, including the names one module imports from
another, so nested calls such as ``rates.angle_sweep`` ->
``superop.spectral_decomposition`` become child spans.  Nothing under
``src/`` changes; the program runs unmodified once ``restore`` is called.

Spans are kept in memory and written out once, when the run ends.  Only
the calling thread is traced: qtel's Monte-Carlo worker threads call
private helpers alone, so no span opens on another thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

import qtel
from qtel import analysis, cli, dynamics, model, oracle, rates, superop

LAYERS = {
    "model": model,
    "superop": superop,
    "dynamics": dynamics,
    "rates": rates,
    "oracle": oracle,
    "analysis": analysis,
    "cli": cli,
}


def _csv_and_meta_bytes(csv_path) -> int:
    meta = csv_path.with_name(csv_path.stem + ".meta.json")
    return os.path.getsize(csv_path) + os.path.getsize(meta)


# Work counters read from a traced call's result: span name -> function
# of the result giving increments of named per-layer counters.
def _enumeration_counts(res):
    # Computed working set: per sequence its n level codes (int64), its
    # 3x3 float64 product and its probability.  From array sizes, not
    # from measured traffic.
    n_seq = 2**res.n_steps
    return {
        "oracle.enumerate_sequences.sequences": n_seq,
        "oracle.enumerate_sequences.bytes_computed": n_seq * (8 * res.n_steps + 80),
    }


COUNTERS = {
    "superop.spectral_decomposition": lambda sd: {
        "superop.spectral_decomposition.d3_sum": sd.dimension**3,
        "superop.spectral_decomposition.defective": int(sd.defective),
    },
    "superop.transfer_from_spectral": lambda out: {
        "superop.transfer_from_spectral.points": len(out)},
    "dynamics.echo_signal": lambda out: {"dynamics.echo_signal.points": len(out)},
    "rates.extract_rates": lambda cr: {
        "rates.extract_rates.envelope": int(cr.method == "envelope-fit")},
    "cli.run": lambda path: {"cli.bytes_written": _csv_and_meta_bytes(path)},
    "oracle.enumerate_sequences": _enumeration_counts,
    "oracle.sample_trajectories": lambda est: {
        "oracle.sample_trajectories.samples": est.n_samples},
}


def public_functions():
    """(span name, function) for every public function of every layer."""
    out = []
    for layer, mod in LAYERS.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", fn))
    return out


class Tracer:
    """Records spans of qtel calls while installed."""

    def __init__(self):
        # (span id, parent id or -1, item id, name, start, end)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.item, name, start, end)
            if count is not None:
                for key, value in count(result).items():
                    counters[key] += value
            return result

        return traced

    def install(self):
        """Swap each public function for its traced wrapper everywhere."""
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions()}
        for mod in (qtel, *LAYERS.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def restore(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path):
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "item", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-function and per-layer calls, busy and self time, counters.

        ``busy_s`` sums the spans of a function (or layer) that have no
        ancestor of the same function (or layer), so recursion and
        nested same-layer calls are not counted twice.  ``self_s`` is
        span time minus the time of direct child spans.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, parent, _, name, start, end in spans:
            layer = name.split(".", 1)[0]
            dur = end - start
            own = dur - child_time[sid]
            outer_fn, outer_layer = True, True
            p = parent
            while p >= 0:
                pname = spans[p][3]
                outer_fn &= pname != name
                outer_layer &= pname.split(".", 1)[0] != layer
                p = spans[p][1]
            for key in (name, layer):
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += own
            if outer_fn:
                out[f"{name}.busy_s"] += dur
            if outer_layer:
                out[f"{layer}.busy_s"] += dur
        out.update(self.counters)
        sd_calls = out["superop.spectral_decomposition.calls"]
        out["superop.spectral_decomposition.defective_ratio"] = (
            out["superop.spectral_decomposition.defective"] / sd_calls if sd_calls else 0.0)
        ex_calls = out["rates.extract_rates.calls"]
        out["rates.envelope_ratio"] = (
            out["rates.extract_rates.envelope"] / ex_calls if ex_calls else 0.0)
        mc_busy = out["oracle.sample_trajectories.busy_s"]
        out["oracle.sample_trajectories.samples_per_s"] = (
            out["oracle.sample_trajectories.samples"] / mc_busy if mc_busy else 0.0)
        return dict(out)
