"""Per-layer timing from outside the program.

The tracer replaces public functions of entrodim's modules with timing
wrappers, wherever a module holds a reference to them (``from .core
import eval_slack`` copies the name into the importing module), and puts
the originals back on exit. Calls become spans (name, start, end,
parent, request id, self time) kept in memory. Hot functions, called per
subgroup tuple or per projection, are kept as a count plus total and
self time instead, so a scan does not hold one span per call.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute, span name, hot); "Class.method" patches a classmethod
TRACED = [
    ("cli", "main", "cli.main", False),
    ("dsl", "parse_with_names", "dsl.parse", False),
    ("dsl", "format_inequality", "dsl.format", False),
    ("shannon", "elemental_inequalities", "shannon.elemental", False),
    ("shannon", "is_shannon_type", "shannon.decide", False),
    ("shannon", "verify_certificate", "shannon.verify", False),
    ("shannon", "verify_farkas", "shannon.verify", False),
    ("simplex", "solve_eq_nonneg", "simplex.solve", False),
    ("groups", "search_violation", "groups.search", False),
    ("groups", "builtin_catalog", "groups.catalog", False),
    ("groups", "all_subgroups", "groups.subgroups", False),
    ("groups", "FiniteGroup.from_json", "groups.table", False),
    ("groups", "subgroups_from_json", "groups.table", False),
    ("groups", "witness_set", "groups.witness_set", False),
    ("groups", "coset_entropy_point", "groups.coset_point", True),
    ("core", "eval_slack", "core.eval_slack", True),
    ("core", "loglin_sign", "core.loglin_sign", True),
    ("distributions", "exact_entropy_vector", "distributions.exact_vector", False),
    ("distributions", "SupportSet.from_json", "distributions.from_json", False),
    ("cantor", "build_counterexample", "cantor.build", False),
    ("cantor", "verify_counterexample", "cantor.verify", False),
    ("cantor", "uniform_fiber", "cantor.uniform_fiber", False),
    ("cantor", "CantorWitness.from_json", "cantor.from_json", False),
    ("cantor", "project", "cantor.project", True),
    ("splitting", "find_split_exhaustive", "splitting.exhaustive", False),
    ("splitting", "find_split_greedy", "splitting.greedy", False),
    ("splitting", "verify_split", "splitting.verify_split", False),
    ("splitting", "cube_bar_instance", "splitting.cube_bar", False),
    ("splitting", "check_unsplit_inequality", "splitting.unsplit", False),
    ("splitting", "FiniteBody.from_json", "splitting.from_json", False),
    ("splitting", "projection_count", "splitting.projection_count", True),
]

MODULES = ("cli", "dsl", "shannon", "simplex", "groups", "core", "cantor",
           "distributions", "splitting")


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Context manager that patches entrodim while active."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (name, start, end, parent span, request, self time)
        self.hot = {}  # name -> [calls, total, self]
        self.stack = []  # open frames: [child time, span index]
        self.request = -1
        self.counts = {}  # outcome counters read by metrics()
        self.subgroup_counts = []  # (group name, order, len(all_subgroups))
        self._pending_tuples = None
        self._patches = []  # (owner, attribute, original value)

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        mods = {name: sys.modules[f"{self.package.__name__}.{name}"] for name in MODULES}
        for modname, attr, span, hot in TRACED:
            mod = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(span, hot, original.__func__)
                self._patch(cls, meth, original, classmethod(wrapped))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(span, hot, original)
            for other in list(mods.values()) + [self.package]:
                if other.__dict__.get(attr) is original:
                    self._patch(other, attr, original, wrapped)
        return self

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- timing -----------------------------------------------------------

    def _wrap(self, name, hot, fn):
        before = getattr(self, "_before_" + fn.__name__, None)
        observe = getattr(self, "_observe_" + fn.__name__, None)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent]
            if not hot:
                frame[1] = len(self.spans)
                self.spans.append(None)  # filled on exit; keeps start order
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self_time = dur - frame[0]
                if hot:
                    rec = self.hot.setdefault(name, [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += self_time
                else:
                    self.spans[frame[1]] = (name, start, end, parent, self.request, self_time)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- observations of arguments and results -----------------------------

    def _observe_is_shannon_type(self, args, kwargs, result):
        self._count("shannon.decisions")
        if type(result).__name__ == "ShannonCertificate":
            self._count("shannon.certified")

    def _observe_solve_eq_nonneg(self, args, kwargs, result):
        a = args[0]
        self.counts["simplex.lp_rows"] = max(self.counts.get("simplex.lp_rows", 0), len(a))
        self.counts["simplex.lp_cols"] = max(self.counts.get("simplex.lp_cols", 0),
                                             len(a[0]) if a else 0)
        answer = result.solution if result.feasible else result.farkas
        bits = max((_bits(q) for q in answer), default=0)
        self.counts["simplex.answer_bits_max"] = max(
            self.counts.get("simplex.answer_bits_max", 0), bits)

    def _observe_all_subgroups(self, args, kwargs, result):
        g = args[0]
        self.subgroup_counts.append((g.name, g.order, len(result)))
        if self._pending_tuples is not None:
            self._pending_tuples[0] += len(result) ** self._pending_tuples[1]

    def _observe_find_split_exhaustive(self, args, kwargs, result):
        self._count("splitting.searches")
        self._count("splitting.found", result is not None)

    _observe_find_split_greedy = _observe_find_split_exhaustive

    def _before_search_violation(self, args, kwargs):
        self._pending_tuples = [0, args[0].m]

    def _observe_search_violation(self, args, kwargs, result):
        # a search that finds nothing has covered every tuple it listed
        if result is None:
            self._count("groups.tuples_covered", self._pending_tuples[0])
        self._pending_tuples = None

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, wall_s, untraced_wall_s):
        total, selfs, calls = {}, {}, {}
        for name, start, end, _parent, _req, self_time in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            selfs[name] = selfs.get(name, 0.0) + self_time
            calls[name] = calls.get(name, 0) + 1
        for name, (n, tot, slf) in self.hot.items():
            total[name] = total.get(name, 0.0) + tot
            selfs[name] = selfs.get(name, 0.0) + slf
            calls[name] = calls.get(name, 0) + n
        c = self.counts

        def t(name):
            return total.get(name, 0.0)

        def ratio(num, den):
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        out = {f"{mod}.self_s": sum((v for k, v in selfs.items() if k.split(".")[0] == mod), 0.0)
               for mod in MODULES}
        out.update({
            "dsl.parse_s": t("dsl.parse"),
            "dsl.parse_calls": calls.get("dsl.parse", 0),
            "shannon.elemental_s": t("shannon.elemental"),
            "shannon.elemental_calls": calls.get("shannon.elemental", 0),
            "shannon.decide_self_s": selfs.get("shannon.decide", 0.0),
            "shannon.verify_s": t("shannon.verify"),
            "shannon.certified_ratio": ratio("shannon.certified", "shannon.decisions"),
            "simplex.solve_s": t("simplex.solve"),
            "simplex.solve_calls": calls.get("simplex.solve", 0),
            "simplex.lp_rows": c.get("simplex.lp_rows", 0),
            "simplex.lp_cols": c.get("simplex.lp_cols", 0),
            "simplex.answer_bits_max": c.get("simplex.answer_bits_max", 0),
            "groups.search_self_s": selfs.get("groups.search", 0.0),
            "groups.tuples_covered": c.get("groups.tuples_covered", 0),
            "groups.catalog_s": t("groups.catalog"),
            "groups.subgroups_s": t("groups.subgroups"),
            "groups.table_s": t("groups.table"),
            "groups.coset_point_calls": calls.get("groups.coset_point", 0),
            "groups.coset_point_s": t("groups.coset_point"),
            "groups.witness_set_s": t("groups.witness_set"),
            "core.loglin_sign_calls": calls.get("core.loglin_sign", 0),
            "core.loglin_sign_s": t("core.loglin_sign"),
            "core.eval_slack_calls": calls.get("core.eval_slack", 0),
            "core.eval_slack_s": t("core.eval_slack"),
            "cantor.build_s": t("cantor.build"),
            "cantor.verify_s": t("cantor.verify"),
            "cantor.project_calls": calls.get("cantor.project", 0),
            "cantor.project_s": t("cantor.project"),
            "cantor.uniform_fiber_s": t("cantor.uniform_fiber"),
            "distributions.exact_vector_calls": calls.get("distributions.exact_vector", 0),
            "distributions.exact_vector_s": t("distributions.exact_vector"),
            "splitting.exhaustive_s": t("splitting.exhaustive"),
            "splitting.greedy_s": t("splitting.greedy"),
            "splitting.projection_count_calls": calls.get("splitting.projection_count", 0),
            "splitting.projection_count_s": t("splitting.projection_count"),
            "splitting.verify_split_s": t("splitting.verify_split"),
            "splitting.split_found_ratio": ratio("splitting.found", "splitting.searches"),
            "trace.wall_s": wall_s,
            "trace.overhead_s": wall_s - untraced_wall_s,
            "trace.spans": len(self.spans),
        })
        return out

    def dump(self):
        return {"spans": [list(s) for s in self.spans],
                "hot": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                        for k, v in sorted(self.hot.items())},
                "subgroup_counts": self.subgroup_counts}
