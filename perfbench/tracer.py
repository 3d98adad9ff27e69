"""In-memory span tracer that wraps smcensus's public functions from outside.

`Tracer.install()` replaces each function in `TARGETS` by a timing wrapper
in every loaded smcensus module that binds it, so calls are traced however
the caller resolves the name (`rotations.unstable_pairs` as well as the
`unstable_pairs` that rotations imported from matchings).  `uninstall()`
puts the originals back.  Nothing under `src/` changes.

A span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1.  A generator function gets one span for the call and
one for every item it produces, so lazy work is charged where it runs.
Self time is a span's duration minus the durations of its direct children.

`layer_metrics()` turns the spans into the per-layer metrics: `verify.*_s`
are inclusive criterion times (what each verdict costs); every other `*_s`
is self time summed over spans of that name; `*_calls` count spans; the
rest are exact counters taken from call arguments and results.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from math import factorial
from time import perf_counter
from types import GeneratorType


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _reveal_label(args, kwargs):
    mode = _arg(args, kwargs, 1, "mode")
    return "counting.reveal_mc" if mode.samples > 0 else "counting.reveal_exact"


def _count_mc_orders(tracer, args, kwargs, result, parent):
    tracer.counts["counting.mc_orders"] += _arg(args, kwargs, 1, "mode").samples


def _count_family(tracer, args, kwargs, result, parent):
    tracer.counts["counting.families"] += 1


def _count_gap_draws(tracer, args, kwargs, result, parent):
    tracer.counts["distributions.gap_dependence_draws"] += result.samples
    tracer.counts["gap_dependence_requested"] += _arg(args, kwargs, 3, "samples", 10 ** 6)


def _count_sampler_draws(tracer, args, kwargs, result, parent):
    tracer.counts["distributions.sampler_draws"] += _arg(args, kwargs, 3, "count")


def _count_rotations(tracer, args, kwargs, result, parent):
    tracer.counts["rotations.rotations"] += len(result.rotations)


def _count_bfs_state(tracer, args, kwargs, result, parent):
    # the BFS in build_rotation_poset asks for the exposed rotations once
    # per lattice state, and each exposed rotation is one transition
    if parent == "rotations.build_poset":
        tracer.counts["rotations.lattice_states"] += 1
        tracer.counts["bfs_transitions"] += len(result)


def _count_bruteforce(tracer, args, kwargs, result, parent):
    tracer.counts["matchings.bruteforce_perms"] += factorial(_arg(args, kwargs, 0, "profile").n)
    tracer.counts["bruteforce_hits"] += len(result)


def _count_series_terms(tracer, args, kwargs, result, parent):
    tracer.counts["bounds.series_terms"] += _arg(args, kwargs, 0, "K")


_CRITERIA = ("bijection", "structure", "embedding", "diamond", "table",
             "family_bounds", "bregman", "distributions", "dominance",
             "identities", "constants", "jensen_and_dependence", "samplers",
             "global_sanity")

# (module, function, span name or a function of the call's arguments
#  returning it -- None records no span --, counter hook or None)
TARGETS = [
    *((("smcensus.verify", f"criterion_{c}", f"verify.c{i:02d}", None)
       for i, c in enumerate(_CRITERIA, start=1))),
    ("smcensus.verify", "run_sweep", "verify.sweep", None),
    ("smcensus.cli", "main", "cli", None),
    ("smcensus.counting", "reveal_bound", _reveal_label, _count_mc_orders),
    ("smcensus.counting", "reveal_bounds_exact", "counting.reveal_exact", None),
    ("smcensus.counting", "perfect_matchings", "counting.perfect_matchings", None),
    ("smcensus.counting", "count_perfect_matchings", "counting.perfect_matchings", None),
    ("smcensus.counting", "downset_top_family", "counting.downset_family", _count_family),
    ("smcensus.counting", "perfect_matching_family", None, _count_family),
    ("smcensus.counting", "diagonal_pair_family", None, _count_family),
    ("smcensus.distributions", "gap_dependence_check", "distributions.gap_dependence",
     _count_gap_draws),
    ("smcensus.distributions", "sample_cyclic_gap", "distributions.sampler",
     _count_sampler_draws),
    ("smcensus.distributions", "sample_line_gap", "distributions.sampler",
     _count_sampler_draws),
    ("smcensus.distributions", "dominance_check_grid", "distributions.dominance", None),
    ("smcensus.distributions", "dominance_check", "distributions.dominance", None),
    *((("smcensus.distributions", f, "distributions.exact_pmf", None)
       for f in ("cyclic_gap_pmf", "cyclic_gap_pmf_bruteforce", "cyclic_gap_expectation",
                 "line_gap_pmf", "line_gap_tail", "line_gap_total"))),
    ("smcensus.rotations", "build_rotation_poset", "rotations.build_poset", _count_rotations),
    ("smcensus.rotations", "stable_matching_bijection", "rotations.bijection", None),
    ("smcensus.rotations", "enumerate_stable_via_rotations", "rotations.bijection", None),
    ("smcensus.rotations", "exposed_rotations", "rotations.exposed", _count_bfs_state),
    ("smcensus.rotations", "eliminate", "rotations.eliminate", None),
    ("smcensus.rotations", "check_structure", "rotations.structure", None),
    ("smcensus.matchings", "unstable_pairs", "matchings.unstable_pairs", None),
    ("smcensus.matchings", "enumerate_stable_bruteforce", "matchings.bruteforce",
     _count_bruteforce),
    ("smcensus.matchings", "gale_shapley", "matchings.gale_shapley", None),
    ("smcensus.posets", "count_downsets", "posets.count_downsets", None),
    ("smcensus.posets", "embed_in_tangled_grid", "posets.embed", None),
    ("smcensus.posets", "poset_from_below", "posets.poset_from_below", None),
    ("smcensus.posets", "enumerate_downset_masks", "posets.enumerate_downsets", None),
    ("smcensus.posets", "enumerate_downsets", "posets.enumerate_downsets", None),
    ("smcensus.bounds", "gap_log_series", "bounds.series", _count_series_terms),
    ("smcensus.bounds", "integral_check", "bounds.integrals", None),
    ("smcensus.bounds", "whitworth_sweep", "bounds.identities", None),
    ("smcensus.bounds", "finite_reveal_log_bound_scan", "bounds.scan", None),
    ("smcensus.bounds", "verify_term_majorants", "bounds.majorants", None),
    ("smcensus.instances", "random_instance", "instances.random_instance", None),
]

_SPAN_NAMES = {label for _, _, label, _ in TARGETS if isinstance(label, str)} | {
    "counting.reveal_mc", "counting.reveal_exact"}
_INCLUSIVE_PREFIX = "verify."
_CALL_COUNTS = ("rotations.exposed", "rotations.eliminate", "matchings.unstable_pairs",
                "posets.count_downsets", "posets.poset_from_below")
_EXACT_COUNTS = ("counting.mc_orders", "counting.families",
                 "distributions.gap_dependence_draws", "distributions.sampler_draws",
                 "rotations.lattice_states", "rotations.rotations",
                 "matchings.bruteforce_perms", "bounds.series_terms")


class Tracer:
    """Spans and counters of one traced run, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around benchmark-side code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _iterate(self, gen, name):
        while True:
            index = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    def wrap(self, fn, label, hook):
        tracer = self

        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            if name is None:
                result = fn(*args, **kwargs)
                parent = None
            else:
                index = tracer._open(name)
                parent_index = tracer.spans[index][3]
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                parent = tracer.spans[parent_index][0] if parent_index >= 0 else None
                if isinstance(result, GeneratorType):
                    result = tracer._iterate(result, name)
            if hook is not None:
                hook(tracer, args, kwargs, result, parent)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "smcensus" or name.startswith("smcensus."))]
        for module_name, attr, label, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, label, hook)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patches.append((module, key, original))
                    setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """(self seconds, inclusive seconds, span count) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, total, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            total[name] += end - start
            calls[name] += 1
        return own, total, calls


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Value of every per-layer metric in `names` derivable from the trace;
    layers the workload never entered read 0."""
    own, total, calls = tracer.self_times()
    counts = tracer.counts
    derived = {
        "distributions.draws_padded_ratio":
            counts["distributions.gap_dependence_draws"] / counts["gap_dependence_requested"]
            if counts["gap_dependence_requested"] else 0.0,
        "rotations.bfs_new_state_ratio":
            (counts["rotations.lattice_states"] - calls["rotations.build_poset"])
            / counts["bfs_transitions"] if counts["bfs_transitions"] else 0.0,
        "matchings.bruteforce_hit_ratio":
            counts["bruteforce_hits"] / counts["matchings.bruteforce_perms"]
            if counts["matchings.bruteforce_perms"] else 0.0,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in _EXACT_COUNTS:
            out[name] = counts[name]
        elif name.endswith("_calls") and name[:-len("_calls")] in _CALL_COUNTS:
            out[name] = calls[name[:-len("_calls")]]
        elif name == "cli.self_s":
            out[name] = own["cli"]
        elif name.endswith("_s") and name[:-2] in _SPAN_NAMES:
            span = name[:-2]
            out[name] = total[span] if span.startswith(_INCLUSIVE_PREFIX) else own[span]
    return out
