"""Counters and timers around the package's layers, installed from outside.

Each layer function is replaced at every name through which its callers look
it up: `fastcheck` imports `buchberger`, `normal_form`, `determinant` and the
rest by name, `Ideal.groebner_basis` and `is_unit_ideal` reach `buchberger`
through the `gbasis` module, and `MinorSelector.next_choice` is a method on
the class.  Nothing under src/ changes.

Untimed, only `next_choice` is wrapped, to count draws and distinct
submatrices; no clock is read.  Timed, every layer below is wrapped and each
span's self time is its duration minus that of the wrapped spans nested
directly inside it.
"""

from __future__ import annotations

import time
import weakref

# Layer name -> (modules whose global of that function name is replaced).
LAYERS = {
    "problemfile.parse_problem_text": ("problemfile",),
    "gbasis.buchberger": ("fastcheck", "gbasis"),
    "gbasis.normal_form": ("fastcheck", "gbasis"),
    "gbasis.is_codim_at_least": ("fastcheck", "gbasis"),
    "gbasis.dim_quotient": ("fastcheck", "gbasis"),
    "gbasis.monomial_ideal_codim": ("fastcheck", "gbasis"),
    "gbasis.is_unit_ideal": ("fastcheck", "gbasis"),
    "polylinalg.determinant": ("fastcheck", "polylinalg"),
    "polylinalg.det_bareiss": ("fastcheck", "polylinalg"),
    "polylinalg.numeric_rank": ("fastcheck", "selection", "polylinalg"),
    "polylinalg.symbolic_rank": ("fastcheck", "polylinalg"),
    "polylinalg.recursive_minors": ("polylinalg",),
}
NEXT_CHOICE = "selection.next_choice"

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = [
    ("fastcheck.checkpoints", "count", "lower"),
    ("gbasis.buchberger.calls", "count", "lower"),
    ("gbasis.buchberger.self_s", "s", "lower"),
    ("gbasis.buchberger.basis_len", "count", "lower"),
    ("gbasis.normal_form.calls", "count", "lower"),
    ("gbasis.normal_form.self_s", "s", "lower"),
    ("gbasis.normal_form.nonzero_share", "ratio", "higher"),
    ("gbasis.is_codim_at_least.calls", "count", "lower"),
    ("gbasis.is_codim_at_least.self_s", "s", "lower"),
    ("gbasis.is_codim_at_least.true_share", "ratio", "higher"),
    ("gbasis.dim_quotient.self_s", "s", "lower"),
    ("gbasis.monomial_ideal_codim.self_s", "s", "lower"),
    ("gbasis.is_unit_ideal.calls", "count", "lower"),
    ("gbasis.is_unit_ideal.self_s", "s", "lower"),
    ("gbasis.is_unit_ideal.true_share", "ratio", "higher"),
    ("polylinalg.determinant.calls", "count", "lower"),
    ("polylinalg.determinant.self_s", "s", "lower"),
    ("polylinalg.determinant.zero_share", "ratio", "lower"),
    ("polylinalg.det_bareiss.calls", "count", "lower"),
    ("polylinalg.det_bareiss.self_s", "s", "lower"),
    ("polylinalg.numeric_rank.calls", "count", "lower"),
    ("polylinalg.numeric_rank.self_s", "s", "lower"),
    ("polylinalg.symbolic_rank.calls", "count", "lower"),
    ("polylinalg.symbolic_rank.self_s", "s", "lower"),
    ("polylinalg.recursive_minors.self_s", "s", "lower"),
    ("selection.next_choice.calls", "count", "lower"),
    ("selection.next_choice.self_s", "s", "lower"),
    ("selection.distinct_share", "ratio", "higher"),
    ("problemfile.parse_problem_text.self_s", "s", "lower"),
    ("fastcheck.projdim_excess", "count", "lower"),
]


def _ratio(stats, key):
    return stats[key] / stats["calls"] if stats["calls"] else 0.0


def _observe_basis(stats, basis):
    stats["basis_len"] += len(basis)


def _observe_nonzero(stats, poly):
    stats["nonzero"] += not poly.is_zero()


def _observe_true(stats, answer):
    stats["true"] += answer is True


def _observe_zero(stats, poly):
    stats["zero"] += poly.is_zero()


OBSERVERS = {
    "gbasis.buchberger": _observe_basis,
    "gbasis.normal_form": _observe_nonzero,
    "gbasis.is_codim_at_least": _observe_true,
    "gbasis.is_unit_ideal": _observe_true,
    "polylinalg.determinant": _observe_zero,
}


class Tracer:
    def __init__(self, pm, timed):
        self.pm = pm
        self.timed = timed
        self.stats = {}
        self.seen = weakref.WeakKeyDictionary()  # selector -> distinct keys drawn
        self._stack = []
        self._saved = []

    def _new_stats(self):
        return {"calls": 0, "self_s": 0.0, "basis_len": 0, "nonzero": 0, "true": 0,
                "zero": 0, "distinct": 0}

    def reset(self):
        self.stats = {name: self._new_stats() for name in (*LAYERS, NEXT_CHOICE)}

    def draws(self):
        """(draws, distinct submatrices) since the last reset."""
        s = self.stats[NEXT_CHOICE]
        return s["calls"], s["distinct"]

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        self.reset()
        selector = self.pm.selection.MinorSelector
        self._replace(selector, "next_choice", self._wrap_next_choice(selector.next_choice))
        if not self.timed:
            return
        for name, owners in LAYERS.items():
            attr = name.split(".")[1]
            original = getattr(getattr(self.pm, name.split(".")[0]), attr)
            wrapper = self._span(name, original, OBSERVERS.get(name))
            for owner in owners:
                self._replace(getattr(self.pm, owner), attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _span(self, name, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = tracer.stats[name]
                stats["calls"] += 1
                stats["self_s"] += elapsed - nested[0]
            if observe is not None:
                observe(stats, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_next_choice(self, fn):
        tracer = self

        def counted(selector, size):
            choice = fn(selector, size)
            keys = tracer.seen.setdefault(selector, set())
            key = choice.key()
            if key not in keys:
                keys.add(key)
                tracer.stats[NEXT_CHOICE]["distinct"] += 1
            return choice

        if not self.timed:
            def untimed(selector, size):
                choice = counted(selector, size)
                tracer.stats[NEXT_CHOICE]["calls"] += 1
                return choice
            return untimed
        return self._span(NEXT_CHOICE, counted)

    def per_layer(self, rounds, extra):
        """Every metric of PER_LAYER, per round; `extra` gives those not counted here.

        Parsing runs once, in set-up, so its self time is the run's total.
        """
        values = dict(extra)
        for name, stats in self.stats.items():
            values[f"{name}.calls"] = stats["calls"] / rounds
            values[f"{name}.self_s"] = stats["self_s"] / rounds
        s = self.stats
        values["problemfile.parse_problem_text.self_s"] = s["problemfile.parse_problem_text"]["self_s"]
        values["gbasis.buchberger.basis_len"] = s["gbasis.buchberger"]["basis_len"] / rounds
        values["gbasis.normal_form.nonzero_share"] = _ratio(s["gbasis.normal_form"], "nonzero")
        values["gbasis.is_codim_at_least.true_share"] = _ratio(s["gbasis.is_codim_at_least"], "true")
        values["gbasis.is_unit_ideal.true_share"] = _ratio(s["gbasis.is_unit_ideal"], "true")
        values["polylinalg.determinant.zero_share"] = _ratio(s["polylinalg.determinant"], "zero")
        values["selection.distinct_share"] = _ratio(s[NEXT_CHOICE], "distinct")
        return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
