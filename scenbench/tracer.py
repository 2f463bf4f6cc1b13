"""Outside-in layer tracing for frangine, from the benchmark's own files.

Each hook names a public function by module attribute (``geometry.pair_d2d``,
``caching.EdgeCache.request``). Installing a hook wraps that function and
rebinds every alias of it inside the ``frangine`` package, because
``from .geometry import distance`` gives the same function a second name in
the importing module. Nothing under ``src/`` changes. A hook whose attribute
is missing is skipped and listed in ``Tracer.missing``; its metrics are left
out, so the benchmark keeps running while modules are deleted or rewritten.

Hooks come in three kinds:

- ``SPAN``: a span (trace id, span id, parent id, name, start, end) is kept
  in memory for every call, and written out by ``write_spans``;
- ``FRAME``: self time and counts but no span, for calls that fire about
  10^3-10^4 times per run;
- ``LEAF``: count and total time only, for calls that fire up to 10^6 times
  per run and call no other hook. Spans there would measure the tracer.

Self time is a call's duration minus the durations of hooked calls made
inside it, so the self times of one run add up to its traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

SPAN, FRAME, LEAF = "span", "frame", "leaf"

# Units of per-layer metrics that are not plain counts.
SECONDS, BYTES, RATIO, COUNT = "s", "B", "ratio", "count"


# ---------------------------------------------------------------------------
# Work counters derived from a hooked call's arguments or result.
# Each takes (arguments by parameter name or None, result) and returns
# {counter name: increment}.
# ---------------------------------------------------------------------------


def _pair_candidates(args, result):
    capable = int(sum(bool(c) for c in args["d2d_capable"]))
    return {"pair_candidates": capable * (capable - 1) // 2}


def _cache_outcome(args, result):
    hit, evicted = result
    return {"hits": int(bool(hit)), "evictions": int(evicted is not None)}


def _fading_draws(args, result):
    return {"fading_draws": int(getattr(result, "size", 1))}


def _sinr_work(args, result):
    trials, n_sig = args["sig_fades"].shape
    n_int = args["int_gains"].size
    # Fade-times-gain products, and float64 bytes read and written, as
    # computed from the array shapes (cache behaviour is not measured).
    return {
        "sinr_elements": trials * (n_sig + n_int),
        "sinr_bytes": 8 * (trials * (n_sig + n_int) + n_sig + n_int + trials),
    }


def _partition_blocks(args, result):
    return {"blocks": len(result.blocks)}


def _ledger_requests(args, result):
    return {"requests": len(result.ledger)}


@dataclass(frozen=True)
class Hook:
    layer: str  # metric prefix, named after the frangine module
    target: str  # "<module>.<attr>[.<attr>]" relative to the frangine package
    kind: str
    time: str | None = None  # metric receiving self seconds
    calls: str | None = None  # metric receiving the call count
    count: Callable | None = None  # work counters from (args, result)
    counters: tuple = ()  # names the count function reports
    needs_args: bool = False
    raises: tuple | None = None  # (exception class name, counter name)
    capture: bool = False  # keep results for the correctness checks


HOOKS = [
    Hook("geometry", "geometry.sample_ppp", FRAME, time="ppp_s"),
    Hook("geometry", "geometry.build_fap_adjacency", SPAN, time="mst_s"),
    Hook("geometry", "geometry.pair_d2d", SPAN, time="pair_s",
         count=_pair_candidates, counters=("pair_candidates",), needs_args=True),
    Hook("mode_select", "mode_select.select_mode", FRAME, time="select_s",
         calls="select_calls"),
    Hook("mode_select", "geometry.distance", LEAF, time="distance_s",
         calls="distance_calls"),
    Hook("mode_select", "mode_select.associate_fap", FRAME, time="associate_s",
         calls="associate_calls", raises=("AllFapsBlocked", "blocked")),
    Hook("caching", "caching.EdgeCache.request", LEAF, time="request_s",
         calls="requests", count=_cache_outcome, counters=("hits", "evictions")),
    Hook("caching", "caching.content_available", LEAF, time="lookup_s"),
    Hook("caching", "caching.zipf_stream", LEAF, time="zipf_s"),
    Hook("channel", "channel.fading_sample", LEAF, time="fading_s",
         calls="fading_calls", count=_fading_draws, counters=("fading_draws",)),
    Hook("kernels", "_kernels.sinr_trials", LEAF, time="sinr_s", calls="sinr_calls",
         count=_sinr_work, counters=("sinr_elements", "sinr_bytes"), needs_args=True),
    Hook("kernels", "_kernels.success_fraction", LEAF, time="success_s"),
    Hook("coordination", "coordination.merge_and_split", SPAN, time="cluster_s",
         count=_partition_blocks, counters=("blocks",), capture=True),
    Hook("coordination", "coordination.cluster_utility", SPAN, time="utility_s",
         calls="utility_evals"),
    Hook("coordination", "coordination.served_fue_indices", SPAN, time="served_s"),
    Hook("coordination", "geometry.adjacency_is_connected", LEAF,
         time="connected_s", calls="connected_calls"),
    Hook("coordination", "coordination.make_d2d_links", SPAN, time="schedule_s"),
    Hook("coordination", "coordination.coac_assign", SPAN, time="schedule_s"),
    Hook("coordination", "coordination.drac_assign", SPAN, time="schedule_s"),
    Hook("coordination", "coordination.cellular_success_probability", SPAN,
         time="cellular_s"),
    Hook("metrics_sim", "metrics_sim.sweep", SPAN, time="self_s", capture=True),
    Hook("metrics_sim", "metrics_sim.run_scenario", SPAN, time="self_s",
         count=_ledger_requests, counters=("requests",)),
    Hook("metrics_sim", "metrics_sim.spatial_average_rate", SPAN, time="rate_s"),
    Hook("metrics_sim", "metrics_sim.d2d_success_probability", SPAN, time="d2d_s"),
    Hook("metrics_sim", "metrics_sim.fronthaul_load", SPAN, time="load_s"),
    Hook("cli", "cli.main", SPAN, time="self_s"),
    Hook("cli", "cli.parse_config", SPAN, time="parse_s"),
]

def _resolve(target: str):
    """(owner object, attribute name, current value) or None when missing."""
    parts = target.split(".")
    try:
        owner = importlib.import_module("frangine." + parts[0])
    except ImportError:
        return None
    for name in parts[1:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if not callable(value):
        return None
    return owner, parts[-1], value


def _frangine_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "frangine" or n.startswith("frangine."))]


@dataclass
class _Stat:
    hook: Hook
    calls: int = 0
    seconds: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Install hooks with ``with Tracer(...)``; read ``metrics()`` after.

    ``capture_only=True`` installs just the hooks the correctness checks need
    (they keep results and do no timing), for the untraced runs.
    """

    def __init__(self, capture_only: bool = False, trace_id: int = 0):
        self.capture_only = capture_only
        self.trace_id = trace_id
        self.captured: dict[str, list] = {}
        self.missing: list[str] = []
        self.broken: list[str] = []
        self.spans: list[tuple] = []
        self._stats: list[_Stat] = []
        self._stack: list[list] = [[0.0, None]]  # [child seconds, span id]
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for hook in HOOKS:
            if self.capture_only and not hook.capture:
                continue
            found = _resolve(hook.target)
            if found is None:
                self.missing.append(hook.target)
                continue
            owner, attr, original = found
            stat = _Stat(hook)
            self._stats.append(stat)
            wrapper = self._wrap(original, stat)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in _frangine_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, stat: _Stat):
        hook = stat.hook
        sink = self.captured.setdefault(hook.target, []) if hook.capture else None
        if self.capture_only:
            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                sink.append(result)
                return result
            return capture

        clock = time.perf_counter
        stack = self._stack
        signature = inspect.signature(fn) if hook.needs_args else None
        tracer = self

        def count(args, kwargs, result):
            if stat.counters is None:
                return
            try:
                named = signature.bind(*args, **kwargs).arguments if signature else None
                for key, value in hook.count(named, result).items():
                    stat.counters[key] = stat.counters.get(key, 0) + value
            except (AttributeError, KeyError, TypeError, ValueError):
                # The function's signature or result changed: drop its
                # counters rather than fail the run.
                tracer.broken.append(hook.target)
                stat.counters = None

        counted = hook.count is not None

        if hook.kind == LEAF:
            def leaf(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
                stat.calls += 1
                stat.seconds += dt
                stack[-1][0] += dt
                if counted:
                    count(args, kwargs, result)
                if sink is not None:
                    sink.append(result)
                return result
            return leaf

        record = hook.kind == SPAN
        spans = self.spans
        name = hook.layer + ":" + hook.target

        def frame(*args, **kwargs):
            span_id = len(spans) if record else None
            if record:
                spans.append(None)  # reserve the id; filled in on exit
            parent = stack[-1][1]
            stack.append([0.0, span_id if record else parent])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if (hook.raises and stat.counters is not None
                        and type(exc).__name__ == hook.raises[0]):
                    stat.counters[hook.raises[1]] = stat.counters.get(hook.raises[1], 0) + 1
                raise
            finally:
                t1 = clock()
                child = stack.pop()[0]
                stat.calls += 1
                stat.seconds += (t1 - t0) - child
                stack[-1][0] += t1 - t0
                if record:
                    spans[span_id] = (tracer.trace_id, span_id, parent, name, t0, t1)
            if counted:
                count(args, kwargs, result)
            if sink is not None:
                sink.append(result)
            return result
        return frame

    # -- results -----------------------------------------------------------

    def take(self, target: str):
        """Results a capture hook kept since the last take, or None when the
        hook is missing."""
        sink = self.captured.get(target)
        if sink is None:
            return None
        results = list(sink)
        sink.clear()
        return results

    def metrics(self, run_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}; run_s is the traced
        wall time of the operation, the base of every self-time share."""
        out: dict[str, list] = {}

        def add(name, value, unit):
            if name in out:
                out[name][0] += value
            else:
                out[name] = [value, unit]

        layer_self = {}
        for stat in self._stats:
            hook = stat.hook
            layer_self[hook.layer] = layer_self.get(hook.layer, 0.0) + stat.seconds
            if hook.time:
                add(f"{hook.layer}.{hook.time}", stat.seconds, SECONDS)
            if hook.calls:
                add(f"{hook.layer}.{hook.calls}", stat.calls, COUNT)
            if stat.counters is not None:
                names = hook.counters + ((hook.raises[1],) if hook.raises else ())
                for key in names:
                    unit = BYTES if key.endswith("_bytes") else COUNT
                    add(f"{hook.layer}.{key}", stat.counters.get(key, 0), unit)
        requests = out.get("caching.requests", [0])[0]
        if "caching.hits" in out:
            add("caching.hit_ratio", out["caching.hits"][0] / requests if requests else 0.0, RATIO)
        for layer, seconds in layer_self.items():
            add(f"{layer}.self_share", seconds / run_s if run_s > 0 else 0.0, RATIO)
        add("trace.run_s", run_s, SECONDS)
        add("trace.spans", sum(1 for s in self.spans if s is not None), COUNT)
        return {name: (value, unit) for name, (value, unit) in out.items()}

    def write_spans(self, path) -> None:
        """One JSON object per span; times are perf_counter seconds."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                trace_id, span_id, parent, name, start, end = span
                fh.write(json.dumps({"trace": trace_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
