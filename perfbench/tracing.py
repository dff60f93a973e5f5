"""Spans and counters recorded around the program's public functions.

The tracer wraps each target function at every binding it is looked up
through: the attribute of its defining module, every other ``splitcover``
module that imported it by name, and the class for methods. ``install`` and
``uninstall`` swap the wrappers in and out, so untraced jobs run the
program's own objects and pay nothing.

Most targets record a span: name, start, end, parent span and job id. Hot
leaves (exact and float coefficient evaluation, root solves, discriminants,
permutation products, braid positions) are counted instead: each call adds
its count and time to the innermost open span, which keeps the trace small
and lets self time be computed as a span's duration minus its child spans
and counted leaves.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path); the layer is the name's first part
SPANS = (
    ("cli.main", "splitcover.cli", "main"),
    ("cli.load", "splitcover.wpoly", "WeierstrassPoly.from_json"),
    ("cli.load", "splitcover.permgroup", "PermGroup.from_json"),
    ("cli.load", "splitcover.wpoly", "BaseSpace.from_json"),
    ("pipeline.realize_group", "splitcover.pipeline", "realize_group"),
    ("pipeline.embed", "splitcover.pipeline", "solve_semitop_embedding"),
    ("pipeline.monodromy", "splitcover.pipeline", "run_monodromy"),
    ("pipeline.verify_tower", "splitcover.pipeline", "run_verify_tower"),
    ("synthesis.synthesize", "splitcover.synthesis", "synthesize_abelian"),
    ("synthesis.synthesize", "splitcover.synthesis", "synthesize_s3"),
    ("approx.estimate_eps", "splitcover.approx", "estimate_eps"),
    ("approx.fit", "splitcover.approx", "fit_rational_polys"),
    ("approx.check_homotopy", "splitcover.approx", "check_homotopy"),
    ("wpoly.weierstrass_init", "splitcover.wpoly", "WeierstrassPoly.__init__"),
    ("monodromy.characteristic_hom", "splitcover.monodromy", "characteristic_hom"),
    ("monodromy.track_loop", "splitcover.monodromy", "track_loop"),
    ("braid.lift_permutation", "splitcover.braid", "lift_permutation"),
    ("freecover.cayley_table", "splitcover.freecover", "cayley_table"),
    ("freecover.deck_group", "splitcover.freecover", "deck_group"),
    ("freecover.subtable", "splitcover.freecover", "subtable"),
    ("freecover.tower_quotient_check", "splitcover.freecover", "tower_quotient_check"),
    ("permgroup.centralizer_in_sym", "splitcover.permgroup", "centralizer_in_sym"),
    ("permgroup.closure", "splitcover.permgroup", "closure"),
    ("permgroup.isomorphic_as_groups", "splitcover.permgroup", "isomorphic_as_groups"),
    ("permgroup.group_hom", "splitcover.permgroup", "GroupHom.__init__"),
    ("embedding.solve", "splitcover.embedding", "solve"),
    ("embedding.verify", "splitcover.embedding", "verify"),
)

LEAVES = (
    ("wpoly.eval_exact", "splitcover.wpoly", "BivariatePolyQi.eval_exact"),
    ("wpoly.eval_complex", "splitcover.wpoly", "WeierstrassPoly.eval_complex"),
    ("wpoly.roots_at", "splitcover.wpoly", "roots_at"),
    ("wpoly.discriminant_at", "splitcover.wpoly", "discriminant_at"),
    ("permgroup.compose", "splitcover.permgroup", "compose"),
    ("braid.braid_position", "splitcover.braid", "braid_position"),
)


def _note_result(name, args, result):
    """A value kept on the span: loops tracked, or whether solve extended the
    base rank."""
    if name == "monodromy.characteristic_hom":
        return result.rank
    if name == "embedding.solve":
        return int(result.rank_used > args[0].base_rank)
    return None


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, job id, {leaf: [calls, s]}, note, error]
        self.spans: list = []
        self.stack: list = []
        self.job_id = None
        self.job_counts: dict = defaultdict(Counter)
        self.missing: list = []
        self._patches: list = []
        self._wrappers: list = []
        for name, module, path in SPANS:
            self._prepare(name, module, path, self._span_wrapper)
        for name, module, path in LEAVES:
            self._prepare(name, module, path, self._leaf_wrapper)

    # -- wrapping --

    def _prepare(self, name, module_name, path, make):
        try:
            owner = importlib.import_module(module_name)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr] if cls_name else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{path}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(name, raw.__func__))
        else:
            wrapped = make(name, raw)
        self._wrappers.append((owner, attr, raw, wrapped, bool(cls_name)))

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "splitcover" or k.startswith("splitcover."))]
        for owner, attr, raw, wrapped, is_method in self._wrappers:
            if is_method:
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, self.job_id,
                   None, None, False]
            stack.append(len(spans))
            spans.append(rec)
            self.job_counts[self.job_id][name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[7] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            rec[6] = _note_result(name, args, result)
            return result
        return wrapper

    def _leaf_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if stack:
                    rec = spans[stack[-1]]
                    if rec[5] is None:
                        rec[5] = {}
                    cell = rec[5].setdefault(name, [0, 0.0])
                    cell[0] += 1
                    cell[1] += dt
                self.job_counts[self.job_id][name] += 1
        return wrapper

    # -- jobs and output --

    def root_span(self, job_id, kind):
        """Open the span of one job; returns a function that closes it."""
        self.job_id = job_id
        rec = ["job", time.perf_counter(), None, -1, job_id, None, kind, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)

        def close(failed=False):
            rec[2] = time.perf_counter()
            rec[7] = failed
            self.stack.pop()
            self.job_id = None
        return close

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0 and rec[2] is not None:
                child[rec[3]] += rec[2] - rec[1]
        out = []
        for i, rec in enumerate(self.spans):
            leaves = sum(s for _, s in (rec[5] or {}).values())
            out.append((rec[2] - rec[1]) - child[i] - leaves)
        return out

    def write(self, path):
        """All spans as JSON lines, with self time, written once at the end."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for i, rec in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": rec[0], "start": rec[1], "end": rec[2],
                    "parent": rec[3], "job": rec[4], "self_s": selfs[i],
                    "leaves": rec[5] or {}, "note": rec[6], "error": rec[7]}) + "\n")

    def sampling_per_realization(self) -> float:
        """Traced counterpart of the report's sampling stage: estimate_eps
        plus the exact grid evaluation done directly in realize_group."""
        runs = [r for r in self.spans if r[0] == "pipeline.realize_group"]
        if not runs:
            return 0.0
        eps = sum(r[2] - r[1] for r in self.spans if r[0] == "approx.estimate_eps")
        grid = sum((r[5] or {}).get("wpoly.eval_exact", (0, 0.0))[1] for r in runs)
        return (eps + grid) / len(runs)

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer metrics over the traced jobs; times and counts are means
        per job unless the name says otherwise."""
        per = 1.0 / max(jobs, 1)
        total = defaultdict(float)
        calls = Counter()
        leaf_calls, leaf_s = Counter(), defaultdict(float)
        for rec in self.spans:
            total[rec[0]] += rec[2] - rec[1]
            calls[rec[0]] += 1
            for leaf, (n, s) in (rec[5] or {}).items():
                leaf_calls[leaf] += n
                leaf_s[leaf] += s

        def nested_in(ancestor, child_name):
            """Calls of child_name below spans called ancestor."""
            count = 0
            for i, rec in enumerate(self.spans):
                if rec[0] != child_name:
                    continue
                p = rec[3]
                while p >= 0 and self.spans[p][0] != ancestor:
                    p = self.spans[p][3]
                count += p >= 0
            return count

        track = [r for r in self.spans if r[0] == "monodromy.track_loop"]
        steps = sum((r[5] or {}).get("wpoly.eval_complex", (0, 0))[0] for r in track)
        loops = sum(r[6] or 0 for r in self.spans
                    if r[0] == "monodromy.characteristic_hom")
        realizes = calls["pipeline.realize_group"]
        solves = [r[6] for r in self.spans if r[0] == "embedding.solve" and r[6] is not None]
        towers = calls["freecover.tower_quotient_check"]

        m = {
            "cli.load_s": total["cli.load"] * per,
            "synthesis.calls": calls["synthesis.synthesize"] * per,
            "synthesis.s": total["synthesis.synthesize"] * per,
            "synthesis.candidates_per_job":
                calls["synthesis.synthesize"] / realizes if realizes else 0.0,
            "approx.estimate_eps_s": total["approx.estimate_eps"] * per,
            "approx.fit_s": total["approx.fit"] * per,
            "approx.check_homotopy_s": total["approx.check_homotopy"] * per,
            "wpoly.eval_exact.calls": leaf_calls["wpoly.eval_exact"] * per,
            "wpoly.eval_exact_s": leaf_s["wpoly.eval_exact"] * per,
            "wpoly.roots_at.calls": leaf_calls["wpoly.roots_at"] * per,
            "wpoly.roots_at_s": leaf_s["wpoly.roots_at"] * per,
            "wpoly.discriminant_at.calls": leaf_calls["wpoly.discriminant_at"] * per,
            "wpoly.discriminant_at_s": leaf_s["wpoly.discriminant_at"] * per,
            "wpoly.eval_complex.calls": leaf_calls["wpoly.eval_complex"] * per,
            "wpoly.validate_s": total["wpoly.weierstrass_init"] * per,
            "monodromy.loops": loops * per,
            "monodromy.track_loop_s": total["monodromy.track_loop"] * per,
            "monodromy.loop_s_p50":
                statistics.median(r[2] - r[1] for r in track) if track else 0.0,
            "monodromy.steps_attempted": steps * per,
            "monodromy.steps_per_loop": steps / len(track) if track else 0.0,
            "monodromy.passes_per_loop": len(track) / loops if loops else 0.0,
            "monodromy.errors": sum(1 for r in track if r[7]),
            "braid.lift_permutation_s": total["braid.lift_permutation"] * per,
            "braid.braid_position.calls": leaf_calls["braid.braid_position"] * per,
            "freecover.cayley_table_s": total["freecover.cayley_table"] * per,
            "freecover.deck_group.calls": calls["freecover.deck_group"] * per,
            "freecover.deck_group_s": total["freecover.deck_group"] * per,
            "freecover.deck_groups_per_tower":
                nested_in("freecover.tower_quotient_check", "freecover.deck_group")
                / towers if towers else 0.0,
            "freecover.subtable_s": total["freecover.subtable"] * per,
            "freecover.tower_quotient_check_s": total["freecover.tower_quotient_check"] * per,
            "permgroup.compose.calls": leaf_calls["permgroup.compose"] * per,
            "permgroup.centralizer_in_sym.calls": calls["permgroup.centralizer_in_sym"] * per,
            "permgroup.centralizer_in_sym_s": total["permgroup.centralizer_in_sym"] * per,
            "permgroup.closure_s": total["permgroup.closure"] * per,
            "permgroup.isomorphic_as_groups_s": total["permgroup.isomorphic_as_groups"] * per,
            "permgroup.group_hom_s": total["permgroup.group_hom"] * per,
            "embedding.solve.calls": len(solves) * per,
            "embedding.solve_s": total["embedding.solve"] * per,
            "embedding.verify_s": total["embedding.verify"] * per,
            "embedding.rank_extension_ratio": sum(solves) / len(solves) if solves else 0.0,
        }
        layer_self = defaultdict(float)
        for rec, s in zip(self.spans, self.self_times()):
            layer_self["bench" if rec[0] == "job" else rec[0].split(".")[0]] += s
        for leaf, s in leaf_s.items():
            layer_self[leaf.split(".")[0]] += s
        for layer in LAYERS:
            m[f"self.{layer}_s"] = layer_self[layer] * per
        return m


LAYERS = ("cli", "pipeline", "synthesis", "approx", "wpoly", "monodromy",
          "braid", "freecover", "permgroup", "embedding", "bench")
