"""Per-layer spans recorded from outside the simulator.

`install` swaps functions and methods of the rltrc modules for timing
wrappers and puts every original back when the block ends; no source file
changes. A layer's self time is the time its spans were open minus the time
their child spans (of any layer) were open, so the layers of one run add up
to the traced host time.

engine.py imports several helpers into its own namespace (`from .control
import assign_zones`, ...), so those are wrapped as `rltrc.engine.<name>`:
wrapping the defining module would leave the span empty. `model.distance` is
not wrapped: it is called millions of times per run and a wrapper would cost
more than the work it times. The pair counts computed by hooks stand in
for it.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from workloads import schedule
from world import dispatched_events, digests, run_problems, simulate  # puts src on the path

from rltrc import engine

Hook = Callable[[Counter, tuple, object], None]


class Tracer:
    """Self seconds per layer and named counts, summed over every traced run."""

    def __init__(self) -> None:
        self._self: defaultdict[str, list[float]] = defaultdict(lambda: [0.0])
        self.counts: Counter = Counter()
        self._open: list[float] = [0.0]  # child seconds of each open span; [0] is the root

    @property
    def self_s(self) -> dict[str, float]:
        return {layer: acc[0] for layer, acc in self._self.items()}

    def span(self, layer: str, fn: Callable, counter: str | None, hook: Hook | None) -> Callable:
        clock = time.perf_counter
        open_spans = self._open
        acc = self._self[layer]
        counts = self.counts

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                acc[0] += elapsed - open_spans.pop()
                open_spans[-1] += elapsed
            if counter is not None:
                counts[counter] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper


def _pair_checks(counts: Counter, args: tuple, _result: object) -> None:
    # _discover_route(src, dst, scope) tests every ordered pair of live nodes
    sim, src, _dst, scope = args
    live = sum(1 for n in scope if sim.nodes[n].alive or n == src)
    counts["engine.discovery.pair_checks"] += live * (live - 1)


def _route_found(counts: Counter, args: tuple, _result: object) -> None:
    # a discovery that finds no route fails the session, which clears the flag
    sn = args[1]
    counts["engine.discovery.found"] += sn.discovering


def _neighbor_checks(counts: Counter, args: tuple, _result: object) -> None:
    # each member's neighbor count scans every node
    ctl, _t, nodes, _rewards = args
    counts["control.sync.neighbor_checks"] += len(ctl.zone.member_nodes) * len(nodes)


# (module of rltrc, attribute path in it, layer, call counter, hook run after each call)
_SPANS: list[tuple[str, str, str, str | None, Hook | None]] = [
    ("engine", "Simulator.run", "engine.dispatch", None, None),
    ("engine", "Simulator._request_route", "engine.discovery", "engine.discovery.calls",
     _route_found),
    ("engine", "Simulator._flood_scope", "engine.discovery", None, None),
    ("engine", "Simulator._charge_flood", "engine.discovery", None, None),
    ("engine", "Simulator._discover_route", "engine.discovery", "engine.discovery.searches",
     _pair_checks),
    ("engine", "shortest_route", "engine.shortest_route", None, None),
    ("engine", "Simulator._transmit", "engine.forward", None, None),
    ("engine", "Simulator._debit", "engine.energy", "engine.energy.debits", None),
    ("engine", "mobility_step", "engine.mobility", "engine.mobility.calls", None),
    ("engine", "Channel.alpha", "engine.channel", "engine.channel.alpha_calls", None),
    ("engine", "propagate", "engine.channel", None, None),
    ("control", "ZoneController.sync", "control.sync", "control.sync.calls", _neighbor_checks),
    ("engine", "assign_zones", "control.assign_zones", None, None),
    ("engine", "destination_lookup", "control.lookup", "control.lookup.calls", None),
    ("engine", "compute_metrics", "metrics", None, None),
    ("engine", "windowed_waste_series", "metrics", None, None),
    ("config", "ScenarioConfig.validate", "config.validate", None, None),
]
_SPANS += [
    ("linkcache", name, "linkcache", "linkcache.calls", None)
    for name in ("record_tx", "record_ack", "predict_displacement", "should_drop",
                 "power_threshold", "available_levels", "mark_reliability", "new_episode")
]
_SPANS += [
    ("policy", name, "policy", "policy.calls", None)
    for name in ("compute_sigma", "select_power_level", "baseline_decide")
]
_SPANS += [
    (module, path, "rewards", "rewards.calls", None)
    for module, path in (
        ("engine", "broadcast_cost"), ("engine", "avg_hop_count"), ("engine", "min_hop_count"),
        ("engine", "accumulate_zone_waste"), ("rewards", "transmission_waste"),
        ("control", "zone_reward"), ("control", "session_reward"), ("control", "network_reward"),
        ("rewards", "NodeRewardState.apply_action"), ("rewards", "NodeRewardState.apply_ack"),
        ("rewards", "NodeRewardState.apply_noack"), ("rewards", "WasteLedger.zone_totals"),
    )
]

# Every `_on_<kind>` handler is one dispatched event; the ones not named here
# belong to the run loop itself.
_HANDLER_LAYER = {
    "_on_mobility_step": "engine.mobility",
    "_on_controller_sync": "control.sync",
    "_on_send_attempt": "engine.forward",
    "_on_packet_arrival": "engine.forward",
    "_on_ack_arrival": "engine.forward",
    "_on_ack_timeout": "engine.forward",
}


def _targets() -> list[tuple[str, str, str, str | None, Hook | None]]:
    handlers = [
        ("engine", "Simulator." + name, _HANDLER_LAYER.get(name, "engine.dispatch"),
         "engine.events", None)
        for name in sorted(vars(engine.Simulator)) if name.startswith("_on_")
    ]
    return _SPANS + handlers


def _owner(module: str, path: str):
    """(object holding the attribute, attribute name), or None when gone."""
    owner = importlib.import_module("rltrc." + module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    return (owner, name) if name in vars(owner) else None


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Route every traced call through `tracer` inside the block. A target
    the program no longer has is skipped, so its layer reads less."""
    saved = []
    try:
        for module, path, layer, counter, hook in _targets():
            found = _owner(module, path)
            if found is None:
                print("perfbench: rltrc.%s.%s not found; its span is skipped" % (module, path),
                      file=sys.stderr)
                continue
            owner, name = found
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, tracer.span(layer, original, counter, hook))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


TRACED_WORLDS = 8  # keeps a traced run of still-forward under a minute

_LAYERS = ("engine.discovery", "engine.shortest_route", "control.sync", "control.assign_zones",
           "engine.forward", "linkcache", "policy", "rewards", "engine.energy",
           "engine.mobility", "engine.channel", "engine.dispatch", "metrics", "config.validate")
_COUNTS = ("engine.discovery.calls", "engine.discovery.pair_checks", "control.sync.calls",
           "control.lookup.calls", "control.sync.neighbor_checks", "engine.forward.attempts",
           "linkcache.calls", "policy.calls", "rewards.calls", "engine.energy.debits",
           "engine.mobility.calls", "engine.channel.alpha_calls", "engine.events",
           "metrics.ledger_rows")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(wl, seed: int, seconds: float, gate) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per simulated run, from traced runs of the first
    TRACED_WORLDS worlds.

    Each traced run follows an untraced run of the same world in this
    process; trace.overhead_s is the difference of their medians. Times are
    host seconds as measured, not rescaled for host speed.
    """
    cfg = wl.config()
    worlds = wl.world_seeds(seed)[:TRACED_WORLDS]
    plain = {w: [] for w in worlds}
    traced = {w: [] for w in worlds}
    tracer = Tracer()
    c = tracer.counts
    for w in schedule(worlds, seconds):
        try:
            sim, report, _setup_s, run_s = simulate(cfg, w)
            plain[w].append(run_s)
            gate.verify(w, digests(report), run_problems(sim, report, wl))
            del sim, report
            before = c["engine.events"]
            with install(tracer):
                sim, report, _setup_s, run_s = simulate(cfg, w)
        except Exception as exc:  # a crash is a failed run, not the end of the benchmark
            gate.raised(w, "run raised %r" % exc)
            continue
        traced[w].append(run_s)
        handled = c["engine.events"] - before
        ledger = sim.ledger
        c["runs"] += 1
        c["engine.forward.attempts"] += len(ledger.attempts)
        c["engine.forward.acked"] += sum(1 for a in ledger.attempts if a.outcome == "ack")
        c["metrics.ledger_rows"] += (len(ledger.debits) + len(ledger.attempts)
                                     + len(ledger.waste_rows) + len(ledger.invest_rows))
        queued = dispatched_events(sim)
        problems = run_problems(sim, report, wl)
        if handled != queued:
            problems.append("traced run handled %d events, the queue dispatched %d" % (handled, queued))
        gate.verify(w, digests(report), problems)
        del sim, report
    n = c["runs"]
    self_s = defaultdict(float, {layer: total / n for layer, total in tracer.self_s.items()})
    total = sum(self_s.values())
    for layer, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print("# layer %-22s %9.4f s %5.1f%% of traced self time" % (layer, secs, 100 * secs / total))
    both = [w for w in worlds if plain[w] and traced[w]]
    metrics = {name: (c[name] / n, "count") for name in _COUNTS}
    metrics.update({layer + ".self_s": (self_s[layer], "s") for layer in _LAYERS})
    metrics.update({
        "engine.discovery.found_ratio":
            (_ratio(c["engine.discovery.found"], c["engine.discovery.calls"]), "ratio"),
        "engine.discovery.fallback_ratio":
            (_ratio(c["engine.discovery.searches"] - c["engine.discovery.calls"],
                    c["engine.discovery.calls"]), "ratio"),
        "engine.forward.ack_ratio":
            (_ratio(c["engine.forward.acked"], c["engine.forward.attempts"]), "ratio"),
        "trace.overhead_s": (
            statistics.fmean(statistics.median(traced[w]) - statistics.median(plain[w])
                             for w in both), "s"),
    })
    return metrics
