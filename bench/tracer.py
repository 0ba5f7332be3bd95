"""Spans around the calls into each diamondlab layer, recorded from outside.

The tracer wraps the public functions listed in ``TRACED`` and rebinds the
wrapper everywhere the original is reachable by name: in the defining
module, in every diamondlab module that imported it by name (for example
``derivation.norm_value`` or ``io.build_cached``), in the package
namespace, and on ``MetricSpace`` for its methods.  Nested calls between
layers are therefore seen.  Spans stay in memory until the run ends;
:meth:`Tracer.restore` puts every original binding back.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# Layer -> public functions whose calls are spans.  ``MetricSpace``
# methods are listed under ``metric``.  Value formatting helpers
# (``format_fraction``, ``parse_address``) are left out: they run once per
# matrix entry inside the traced readers and writers.
TRACED = {
    "diamond": ("build", "build_cached", "finest_edges",
                "shortest_path_closure"),
    "metric": ("MetricSpace.integer_scaled", "MetricSpace.validate_metric",
               "MetricSpace.restrict"),
    "freespace": ("norm_value", "free_norm", "verify_certificate"),
    "lipschitz": ("lip_constant", "is_lipschitz_at_most", "mcshane_extend",
                  "glue_poles", "pull_to_copy", "distance_functional"),
    "derivation": ("prover_certify", "verify_transcript", "adversary_family",
                   "relative_derivation_oracle", "mutate_transcript",
                   "collect_vectors"),
    "decomposition": ("build_cover", "cover_partition", "summing_metric",
                      "equivalence_constants", "ell1_additivity_check",
                      "projection_identity_check"),
    "io": ("write_space", "read_space", "write_transcript",
           "read_transcript"),
}

PACKAGE = "diamondlab"

# Span fields, stored as lists: name, parent index (-1 at top level),
# start, end, attributes (or None).
NAME, PARENT, START, END, ATTRS = range(5)


class Tracer:
    """Records one span per traced call; install before use, restore after."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._seen_spaces: dict[int, object] = {}

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        solves = sys.modules[f"{PACKAGE}.freespace"].norm_statistics
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for qualname in names:
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                span_name = f"{layer}.{attr}"
                wrapper = self._wrap(span_name, original, solves)
                wrappers[id(original)] = (original, wrapper)
                if owner is not module:
                    self._rebind(owner, attr, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn, solves):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        attrs = _ATTRS.get(name)
        counts_solves = name in ("freespace.norm_value", "freespace.free_norm")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            before = solves()["norms"] if counts_solves else 0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts_solves:
                span[ATTRS] = {"support": len(args[0].support),
                               "solved": solves()["norms"] - before}
            elif attrs is not None:
                span[ATTRS] = attrs(self, args, result)
            return result

        return wrapper

    def seen_space(self, space) -> bool:
        """True when ``space`` was already returned by ``build_cached``."""
        if id(space) in self._seen_spaces:
            return True
        # Holding the object keeps its id from being reused.
        self._seen_spaces[id(space)] = space
        return False

    # -- summaries -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self) -> dict[str, dict]:
        """Calls and self seconds per span name."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
        return out


def _cached_build_attrs(tracer: Tracer, args, result) -> dict:
    space = result[0]
    return {"points": len(space), "built": not tracer.seen_space(space)}


def _write_attrs(tracer: Tracer, args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _depth_attrs(tracer: Tracer, args, result) -> dict:
    return {"depth": args[2]}


def _report_attrs(tracer: Tracer, args, result) -> dict:
    return {"nodes": len(result.entries), "passed": result.passed}


_ATTRS = {
    "diamond.build": lambda t, a, r: {"points": len(r[0]), "built": True},
    "diamond.build_cached": _cached_build_attrs,
    "diamond.finest_edges": lambda t, a, r: {"edges": len(r)},
    "derivation.prover_certify": _depth_attrs,
    "derivation.verify_transcript": _report_attrs,
    "io.write_space": _write_attrs,
    "io.write_transcript": _write_attrs,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, result: dict, rec) -> dict[str, float]:
    """The per-layer metrics of one traced process, set-up included.

    ``result`` carries the ``norm_statistics()`` deltas (``solves`` and
    ``gap_checks``); ``rec`` the workload's mutant counts.  A ratio whose
    base is zero reads 0.
    """
    totals = tracer.totals()
    own = tracer.self_times()

    def self_s(*names: str) -> float:
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    built = [(span, t) for span, t in zip(tracer.spans, own)
             if span[NAME] in ("diamond.build", "diamond.build_cached")
             and span[ATTRS] is not None and span[ATTRS]["built"]]
    cached = calls("diamond.build_cached")
    cache_hits = cached - sum(1 for s, _ in built
                              if s[NAME] == "diamond.build_cached")
    norm_calls = calls("freespace.norm_value") + calls("freespace.free_norm")

    def attr_sum(name: str, key: str, only_passed: bool = False) -> int:
        return sum(s[ATTRS][key] for s in tracer.spans
                   if s[NAME] == name and s[ATTRS] is not None
                   and (not only_passed or s[ATTRS]["passed"]))

    writes = [n for n in totals if n.startswith("io.write_")]
    reads = [n for n in totals if n.startswith("io.read_")]
    return {
        "diamond.build.calls": len(built),
        "diamond.build.self_s": sum(t for _, t in built),
        "diamond.points": sum(s[ATTRS]["points"] for s, _ in built),
        "diamond.build_cached.hit_ratio": ratio(cache_hits, cached),
        "diamond.finest_edges.self_s": self_s("diamond.finest_edges"),
        "diamond.edges": attr_sum("diamond.finest_edges", "edges"),
        "diamond.shortest_path_closure.self_s":
            self_s("diamond.shortest_path_closure"),
        "metric.integer_scaled.self_s": self_s("metric.integer_scaled"),
        "metric.validate_metric.self_s": self_s("metric.validate_metric"),
        "metric.restrict.calls": calls("metric.restrict"),
        "metric.restrict.self_s": self_s("metric.restrict"),
        "freespace.norm_value.calls": calls("freespace.norm_value"),
        "freespace.norm_value.self_s": self_s("freespace.norm_value"),
        "freespace.free_norm.calls": calls("freespace.free_norm"),
        "freespace.free_norm.self_s": self_s("freespace.free_norm"),
        "freespace.solves": result["solves"],
        "freespace.gap_checks": result["gap_checks"],
        "freespace.cache_hit_ratio":
            1 - ratio(result["solves"], norm_calls) if norm_calls else 0.0,
        "freespace.verify_certificate.self_s":
            self_s("freespace.verify_certificate"),
        "lipschitz.lip_constant.self_s": self_s("lipschitz.lip_constant"),
        "lipschitz.is_lipschitz_at_most.self_s":
            self_s("lipschitz.is_lipschitz_at_most"),
        "lipschitz.mcshane_extend.self_s": self_s("lipschitz.mcshane_extend"),
        "lipschitz.glue_poles.self_s": self_s("lipschitz.glue_poles"),
        "lipschitz.pull_to_copy.self_s": self_s("lipschitz.pull_to_copy"),
        "derivation.prover_certify.self_s":
            self_s("derivation.prover_certify"),
        "derivation.verify_transcript.self_s":
            self_s("derivation.verify_transcript"),
        "derivation.adversary_family.self_s":
            self_s("derivation.adversary_family"),
        "derivation.relative_derivation_oracle.self_s":
            self_s("derivation.relative_derivation_oracle"),
        "derivation.nodes_verified":
            attr_sum("derivation.verify_transcript", "nodes",
                     only_passed=True),
        "derivation.mutants_caught_ratio":
            ratio(rec.mutants_caught, rec.mutants),
        "decomposition.build_cover.self_s":
            self_s("decomposition.build_cover"),
        "decomposition.summing_metric.self_s":
            self_s("decomposition.summing_metric"),
        "decomposition.equivalence_constants.self_s":
            self_s("decomposition.equivalence_constants"),
        "decomposition.identity_checks.self_s":
            self_s("decomposition.ell1_additivity_check",
                   "decomposition.projection_identity_check"),
        "io.write.self_s": self_s(*writes),
        "io.read.self_s": self_s(*reads),
        "io.bytes_written": sum(attr_sum(n, "bytes") for n in writes),
    }


def baselines(tracer: Tracer) -> dict[str, dict]:
    """Median span durations for the figures the ROADMAP quotes.

    Builds by point count, fresh ``norm_value`` solves by support, and
    genuine prover and verifier calls by depth and node count.
    """
    groups: dict[str, dict] = {"build_s": {}, "norm_value_s": {},
                               "prove_s": {}, "verify_s": {}}
    for span in tracer.spans:
        name, attrs = span[NAME], span[ATTRS]
        if attrs is None:
            continue
        took = span[END] - span[START]
        if name in ("diamond.build", "diamond.build_cached") and attrs["built"]:
            key, group = attrs["points"], "build_s"
        elif name == "freespace.norm_value" and attrs["solved"]:
            key, group = attrs["support"], "norm_value_s"
        elif name == "derivation.prover_certify":
            key, group = attrs["depth"], "prove_s"
        elif name == "derivation.verify_transcript" and attrs["passed"]:
            key, group = attrs["nodes"], "verify_s"
        else:
            continue
        groups[group].setdefault(str(key), []).append(took)
    return {group: {key: {"median": sorted(v)[len(v) // 2], "n": len(v)}
                    for key, v in sorted(rows.items(), key=lambda kv:
                                         int(kv[0]))}
            for group, rows in groups.items()}
