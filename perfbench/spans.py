"""Outside-in tracing of the alcoves modules, from the benchmark's files.

`Tracer.install()` replaces every module-global binding of each public
function of the library (in every `alcoves.*` module that binds it, such
as `facet_of` in both `alcove` and `weylaff`) with a timing wrapper, and
`uninstall()` puts the originals back.  A wrapper records one span per
call: function, parent span, start and end.  Spans stay in memory until
`write()`.  The `ratmat` kernels are wrapped with counters only, because
they are called millions of times.

Time spent in methods and private helpers is not seen from outside, so it
counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import gzip
import json
import sys
import types
from time import perf_counter_ns

MODULES = ("rootdata", "alcove", "weylaff", "centralizer", "parabolic",
           "weierstrass", "svg", "cli")
COUNTED = {"ratmat": ("matmul", "matvec", "inverse")}
# functions whose argument repeats are counted (the property a cache needs)
REPEAT_KEYED = {"alcove.faces_of_alcove", "weylaff.point_reflection_subgroup",
                "centralizer.centralizer_elliptic"}
# functions whose share of True results is counted
HIT_COUNTED = {"weylaff.star_contains"}


def _targets():
    """(qualified name, function) for every public function the
    library defines."""
    out = []
    for mod_name in MODULES:
        mod = sys.modules[f"alcoves.{mod_name}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                out.append((f"{mod_name}.{name}", obj))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.t0: list[int] = []
        self.t1: list[int] = []
        self.outer: list[bool] = []  # not nested in a span of the same fn
        self.phase: list[int] = []
        self.phases: list[str] = []
        self.counts: dict[str, int] = {}
        self.repeats: dict[str, list[int]] = {}  # name -> [repeats, calls]
        self.hits: dict[str, list[int]] = {}  # name -> [true, calls]
        self.sizes: dict[str, list] = {}  # name -> len() of each result
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._depth: list[int] = []
        self._bindings = []  # (module, attr, original, wrapper)
        self._build()
        self.set_phase("setup")

    def set_phase(self, name: str):
        self.phases.append(name)

    def counters(self) -> dict:
        """A copy of the call counters, to subtract a phase's share."""
        return {
            "counts": dict(self.counts),
            "repeats": {k: list(v) for k, v in self.repeats.items()},
            "hits": {k: list(v) for k, v in self.hits.items()},
            "sizes": {k: list(v) for k, v in self.sizes.items()},
        }

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, qual: str, fn):
        fid = len(self.names)
        self.names.append(qual)
        self._depth.append(0)
        fids, parents, t0s, t1s = self.fid, self.parent, self.t0, self.t1
        outers, phases, stack, depth = (self.outer, self.phase, self._stack,
                                        self._depth)
        phase_names = self.phases
        repeat = self.repeats.setdefault(qual, [0, 0]) \
            if qual in REPEAT_KEYED else None
        seen = self._seen.setdefault(qual, set())
        hit = self.hits.setdefault(qual, [0, 0]) if qual in HIT_COUNTED \
            else None
        sizes = self.sizes.setdefault(qual, []) \
            if qual == "rootdata.weyl_group" else None

        def wrapper(*args, **kwargs):
            idx = len(t0s)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            outers.append(depth[fid] == 0)
            phases.append(len(phase_names) - 1)
            t1s.append(0)
            stack.append(idx)
            depth[fid] += 1
            t0s.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter_ns()
                depth[fid] -= 1
                stack.pop()
            if repeat is not None:
                repeat[1] += 1
                try:
                    key = (args, tuple(sorted(kwargs.items())))
                    if key in seen:
                        repeat[0] += 1
                    else:
                        seen.add(key)
                except TypeError:  # unhashable arguments never repeat
                    pass
            if hit is not None:
                hit[1] += 1
                hit[0] += result is True
            if sizes is not None:
                sizes.append(len(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, qual: str, fn):
        counts = self.counts
        counts[qual] = 0

        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _build(self):
        wrappers = {}
        for qual, fn in _targets():
            wrappers[id(fn)] = (fn, self._span_wrapper(qual, fn))
        for mod_name, names in COUNTED.items():
            mod = sys.modules[f"alcoves.{mod_name}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._count_wrapper(
                    f"{mod_name}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "alcoves" and not mod_name.startswith("alcoves."):
                continue
            for attr, obj in list(vars(mod).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._bindings.append((mod, attr, obj, pair[1]))

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self, phase_prefix: str) -> dict:
        """Per-function and per-module totals over the spans recorded in
        phases whose name starts with `phase_prefix`.

        Returns {"fn": {name: {"calls", "s"}}, "module": {module: self
        seconds}}; `s` counts only outermost calls, so recursion is not
        counted twice.
        """
        keep = {i for i, name in enumerate(self.phases)
                if name.startswith(phase_prefix)}
        n = len(self.t0)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        fn = {}
        module = {}
        for i in range(n):
            if self.phase[i] not in keep:
                continue
            name = self.names[self.fid[i]]
            dur = self.t1[i] - self.t0[i]
            own = dur - child[i]  # self time
            rec = fn.setdefault(name, {"calls": 0, "s": 0.0})
            rec["calls"] += 1
            if self.outer[i]:
                rec["s"] += dur / 1e9
            mod = name.split(".", 1)[0]
            module[mod] = module.get(mod, 0.0) + own / 1e9
        return {"fn": fn, "module": module}

    def write(self, path: str):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"functions": self.names,
                                 "phases": self.phases,
                                 "fields": ["fn", "parent", "phase",
                                            "start_ns", "end_ns"]}) + "\n")
            for i in range(len(self.t0)):
                fh.write(f"[{self.fid[i]},{self.parent[i]},{self.phase[i]},"
                         f"{self.t0[i]},{self.t1[i]}]\n")


def layer_metrics(tracer: Tracer, base: dict, rounds: int,
                  radius: int) -> dict:
    """Per-layer metrics of a traced run, as {name: value}.

    Values are per traced round, except `rootdata.weyl_group.*`, which
    cover the set-up (the only place the Weyl group is enumerated).
    `base` is `tracer.counters()` taken at the end of set-up.
    """
    rounds = max(rounds, 1)
    run = tracer.summary("round")
    fn, module = run["fn"], run["module"]
    setup_fn = tracer.summary("setup")["fn"]
    now = tracer.counters()

    def calls(q):
        return fn.get(q, {}).get("calls", 0) / rounds

    def secs(q):
        return fn.get(q, {}).get("s", 0.0) / rounds

    def count(q):
        return (now["counts"][q] - base["counts"][q]) / rounds

    def ratio(table, q):
        num = now[table][q][0] - base[table][q][0]
        den = now[table][q][1] - base[table][q][1]
        return num / den if den else 0.0

    out = {
        "rootdata.weyl_group.s":
            setup_fn.get("rootdata.weyl_group", {}).get("s", 0.0),
        "rootdata.weyl_group.elements":
            sum(base["sizes"]["rootdata.weyl_group"]),
    }
    for q in ("ratmat.matmul", "ratmat.matvec", "ratmat.inverse"):
        out[q + ".calls"] = count(q)
    for mod in ("alcove", "weylaff", "centralizer", "parabolic",
                "weierstrass", "cli"):
        out[mod + ".self_s"] = module.get(mod, 0.0) / rounds
    for q in ("alcove.facet_of", "alcove.facet_closure_contains",
              "weylaff.point_reflection_subgroup",
              "weylaff.stabilizer_of_point", "weylaff.reduce_to_alcove",
              "centralizer.centralizer_elliptic", "parabolic.parabolic"):
        out[q + ".calls"] = calls(q)
        out[q + ".s"] = secs(q)
    for q in ("alcove.faces_of_alcove", "weylaff.compose",
              "weylaff.affine_reflection", "weylaff.star_contains",
              "cli.main"):
        out[q + ".calls"] = calls(q)
    for q in ("weylaff.stabilizer_of_face", "weylaff.star_facet_witnesses",
              "weylaff.verify_star_intersection", "weylaff.chart_overlap",
              "centralizer.double_affine_centralizer",
              "centralizer.subsystem_type", "parabolic.restriction_diagram",
              "weierstrass.wp_matrix", "weierstrass.wp_prime_matrix",
              "weierstrass.invariants", "cli.run_suite"):
        out[q + ".s"] = secs(q)
    for q in REPEAT_KEYED:
        out[q + ".repeat_ratio"] = ratio("repeats", q)
    for q in HIT_COUNTED:
        out[q + ".hit_ratio"] = ratio("hits", q)
    # computed, not counted: each wp_matrix or wp_prime_matrix call inverts
    # one n x n matrix per lattice point of the shells 1..R, 4R(R+1) in all
    out["weierstrass.shell_inverses"] = (
        calls("weierstrass.wp_matrix") + calls("weierstrass.wp_prime_matrix")
    ) * 4 * radius * (radius + 1)
    return out
