"""Per-layer metrics from one cProfile-traced pass.

Self time is aggregated by the source module of each frame: every module of
``spintorus`` is a layer, frames of the stdlib ``fractions`` module go to
``scalars.fraction_self_s``, and the rest of the traced wall time is the
explicit ``other`` remainder (stdlib, benchmark code and unattributed
profiler cost). The profiler runs with ``builtins=False``, so time in C
functions such as ``math.gcd`` or ``isinstance`` counts as self time of the
Python function that called them.

Call counts and inclusive times come from named public entry points, looked
up by their code objects, plus the caller table for counts that depend on
who called. The only hook beyond the profiler wraps the three lattice
conjugation functions of ``spintorus.action`` in every module that imported
them, to count distinct (actor, table, lattice) matrices; it is removed when
the pass ends. No file of the package is changed.
"""

from __future__ import annotations

import cProfile
import fractions
import os
import pstats
import sys
import time
from collections import defaultdict

import spintorus
from spintorus import action, clifford, endo, exprs, matrices, picard, scalars, spinrep, torus

LAYERS = ("scalars", "matrices", "clifford", "spinrep", "torus", "action",
          "picard", "endo", "exprs", "suite", "cli")

_PACKAGE_DIR = os.path.dirname(os.path.abspath(spintorus.__file__))
_FRACTIONS_FILE = os.path.abspath(fractions.__file__)
_CONJUGATIONS = ("lattice_matrix", "preserves_lattice", "group_lattice_matrix")


def _key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _nested_key(fn, name: str) -> tuple[str, int, str]:
    for const in fn.__code__.co_consts:
        if getattr(const, "co_name", None) == name:
            return const.co_filename, const.co_firstlineno, const.co_name
    raise LookupError(f"{fn.__name__} has no nested {name}")


def _layer_of(filename: str) -> str:
    path = os.path.abspath(filename)
    if os.path.dirname(path) == _PACKAGE_DIR:
        stem = os.path.splitext(os.path.basename(path))[0]
        return stem if stem in LAYERS else "other"
    return "fraction" if path == _FRACTIONS_FILE else "other"


def _renderer(key: tuple[str, int, str]) -> bool:
    """Functions that turn values into text: dunder string methods and the *_source printers."""
    filename, _, name = key
    layer = _layer_of(filename)
    if layer == "other":
        return False
    return name in ("__str__", "__repr__", "__format__") or name.endswith("_source")


class Tracer:
    """Profile one pass; `metrics` turns the profile into per-layer numbers."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile(builtins=False)
        self.conjugations = 0
        self.distinct: set = set()
        self._tables: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, original):
        def counted(actor, table, lattice):
            self.conjugations += 1
            # Keep the table alive so its id is not reused by a later table.
            self._tables[id(table)] = table
            actor_key = actor if isinstance(actor, clifford.GeneratorGroupElement) else actor.terms()
            self.distinct.add((actor_key, id(table), lattice))
            return original(actor, table, lattice)

        return counted

    def __enter__(self) -> Tracer:
        for name in _CONJUGATIONS:
            original = getattr(action, name)
            wrapper = self._count(original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("spintorus") and getattr(module, name, None) is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)
        self.started = time.perf_counter()
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        self.wall_s = time.perf_counter() - self.started
        for module, name, original in self._patched:
            setattr(module, name, original)
        self._patched.clear()
        self._tables.clear()

    def metrics(self, untraced_wall_s: float, checks: int, failures_kept: int) -> dict[str, tuple[float, str]]:
        stats = pstats.Stats(self.profile).stats
        empty = (0, 0, 0.0, 0.0, {})

        def calls(*fns) -> int:
            return sum(stats.get(_key(fn), empty)[1] for fn in fns)

        def inclusive(*fns) -> float:
            return sum(stats.get(_key(fn), empty)[3] for fn in fns)

        def calls_from(key, caller_test) -> int:
            callers = stats.get(key, empty)[4]
            return sum(edge[0] for caller, edge in callers.items() if caller_test(caller))

        self_s: dict[str, float] = defaultdict(float)
        for (filename, _, _), (_, _, tottime, _, _) in stats.items():
            self_s[_layer_of(filename)] += tottime

        render_calls = 0
        render_s = 0.0
        for key, (_, _, _, _, callers) in stats.items():
            if _renderer(key):
                for caller, (nc, _, _, ct) in callers.items():
                    if _layer_of(caller[0]) == "suite":
                        render_calls += nc
                        render_s += ct

        def outside_exprs(caller) -> bool:
            return _layer_of(caller[0]) != "exprs"

        parse_fns = (exprs.parse_element, exprs.evaluate_element, exprs.parse_point,
                     exprs.parse_bundle, exprs.parse_gaussian, exprs.parse_rational)
        render_fns = (exprs.element_source, exprs.point_source, exprs.bundle_source)
        scan_callers = {_key(action.verify_two_torsion)}
        setup_fns = (spinrep.build_generators, torus.LatticeSpec.__init__, torus.PolarizationData.__init__,
                     torus.is_principal, torus.PolarizationData.inverse_transpose_form)
        wall = self.wall_s

        values: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = (self_s[layer], "s")
        values["scalars.fraction_self_s"] = (self_s["fraction"], "s")
        values["scalars.gaussian_new"] = (calls(scalars.GaussianRational.__init__), "count")
        values["scalars.mod1_calls"] = (calls(scalars.GaussianRational.mod1), "count")
        values["matrices.matvec_calls"] = (calls(matrices.Matrix.matvec), "count")
        values["matrices.matmul_calls"] = (calls(matrices.Matrix.__matmul__), "count")
        values["matrices.det_calls"] = (calls(matrices.Matrix.det), "count")
        values["matrices.det_s"] = (inclusive(matrices.Matrix.det), "s")
        values["matrices.inv_calls"] = (calls(matrices.Matrix.inv), "count")
        values["matrices.rank_s"] = (inclusive(matrices.rank_of_rows), "s")
        values["matrices.smith_calls"] = (calls(matrices.smith_form), "count")
        values["matrices.smith_s"] = (inclusive(matrices.smith_form), "s")
        values["clifford.element_mul_calls"] = (calls(clifford.CliffordElement.__mul__), "count")
        values["clifford.group_mul_calls"] = (calls(clifford.GeneratorGroupElement.mul), "count")
        values["clifford.element_order_calls"] = (calls(clifford.element_order), "count")
        values["clifford.generator_group_calls"] = (calls(clifford.generator_group), "count")
        values["spinrep.build_calls"] = (calls(spinrep.build_generators), "count")
        values["spinrep.build_s"] = (inclusive(spinrep.build_generators), "s")
        values["spinrep.represent_calls"] = (
            calls(spinrep.RepresentationTable.represent, spinrep.RepresentationTable.represent_group_element), "count")
        values["torus.points_built"] = (calls(torus.TorusPoint.__init__), "count")
        values["torus.reduce_calls"] = (calls(torus.LatticeSpec.reduce), "count")
        generate = _nested_key(torus.torsion_points, "generate")
        values["torus.torsion_points_yielded"] = (
            calls_from(_key(torus.TorusPoint.__init__), lambda caller: caller == generate), "count")
        values["torus.point_str_calls"] = (calls(torus.TorusPoint.__str__), "count")
        values["torus.polarization_builds"] = (calls(torus.PolarizationData.__init__), "count")
        values["action.translation_systems"] = (calls(action.translation_system), "count")
        values["action.lattice_matrix_calls"] = (self.conjugations, "count")
        values["action.lattice_matrix_useful_ratio"] = (
            len(self.distinct) / self.conjugations if self.conjugations else 0.0, "ratio")
        # Each two-torsion point costs two matrix applications: in verify_two_torsion,
        # and in the sampled scan the clifford_action suite runs at k >= 3.
        values["action.two_torsion_points_checked"] = (calls_from(
            _key(action.apply_matrix),
            lambda caller: caller in scan_callers or caller[2] == "_run_clifford_action") // 2, "count")
        values["picard.point_to_bundle_calls"] = (calls(picard.point_to_bundle), "count")
        values["picard.bundle_to_point_calls"] = (calls(picard.bundle_to_point), "count")
        values["picard.bundle_systems"] = (calls(picard.bundle_system), "count")
        values["picard.bundle_str_calls"] = (calls(picard.BundleClass.__str__), "count")
        values["endo.subring_index_s"] = (inclusive(endo.subring_index), "s")
        values["endo.det_match_calls"] = (calls(endo.representation_determinants_match), "count")
        values["endo.det_match_s"] = (inclusive(endo.representation_determinants_match), "s")
        values["endo.containment_s"] = (inclusive(endo.automorphism_containment), "s")
        values["exprs.parse_calls"] = (sum(calls_from(_key(fn), outside_exprs) for fn in parse_fns), "count")
        values["exprs.render_calls"] = (sum(calls_from(_key(fn), outside_exprs) for fn in render_fns), "count")
        values["suite.checks"] = (checks, "count")
        values["suite.render_s"] = (render_s, "s")
        values["suite.render_useful_ratio"] = (failures_kept / render_calls if render_calls else 0.0, "ratio")
        values["cli.setup_share"] = (inclusive(*setup_fns) / wall, "ratio")
        named = sum(self_s[layer] for layer in LAYERS) + self_s["fraction"]
        values["other.self_s"] = (wall - named, "s")
        values["trace.wall_s"] = (wall, "s")
        values["trace.overhead_ratio"] = (wall / untraced_wall_s, "ratio")
        return values
