"""Per-layer tracing of logsurf from outside the package.

`Tracer.install()` wraps the public functions of each layer and rebinds
every module-level name that refers to one, in every `logsurf` module and
in the modules passed to it, because the modules import each other's
functions by name.  A wrapped call records a span (function, parent span,
duration) in memory; `metrics()` turns the spans into per-function call
counts and self times when the run ends.  Self time is a span's duration
minus the whole of its traced children, wrapper bookkeeping included, so
the tracer's own work is charged to no function.

`pairing`, `validate_config`, `relative_picard_rank` and
`SurfaceState.__init__` are only counted: `pairing` alone is called over a
million times per round, and the short time of a counted call falls in its
caller's self time.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections.abc import Set, Sequence
from functools import cached_property, update_wrapper
from time import perf_counter_ns
from typing import Any, Callable

# (layer, function) pairs that get spans; "Class.attr" names a class member.
SPANS = (
    ("ratlin", "is_negative_definite"),
    ("ratlin", "solve_symmetric"),
    ("ratlin", "determinant"),
    ("surface", "gram"),
    ("surface", "run_contraction"),
    ("surface", "smooth_point_blowdown"),
    ("surface", "connected_components"),
    ("surface", "blow_up"),
    ("crepant", "crepant_pullback"),
    ("crepant", "SurfaceState.classification"),
    ("crepant", "is_log_crepant"),
    ("crepant", "pushforward_self_intersection"),
    ("crepant", "correction_multiplicities"),
    ("crepant", "log_degree"),
    ("crepant", "lc_centers"),
    ("moves", "is_log_flopping"),
    ("moves", "is_log_blowdown"),
    ("moves", "epsilon_bound"),
    ("moves", "contract_flop"),
    ("moves", "contract_blowdown"),
    ("moves", "is_flop_minimal"),
    ("moves", "is_nef_on_marked"),
    ("decompose", "decompose_morphism"),
    ("decompose", "minimize"),
    ("decompose", "verify_trace"),
    ("decompose", "generate_crepant_pair"),
    ("cli", "trace_to_json"),
    ("cli", "trace_from_json"),
    ("cli", "config_to_json"),
    ("cli", "config_from_json"),
    ("cli", "config_digest"),
)

# (layer, function, metric name) of calls that are only counted.
COUNTS = (
    ("surface", "pairing", "surface.pairing.calls"),
    ("surface", "validate_config", "surface.validate_config.calls"),
    ("crepant", "SurfaceState.__init__", "crepant.SurfaceState.created"),
    ("moves", "relative_picard_rank", "moves.relative_picard_rank.calls"),
)

LAYERS = ("ratlin", "surface", "crepant", "moves", "decompose", "cli")


class _Keys:
    """Argument keys for repeated-work ratios, comparing configurations by value."""

    def __init__(self) -> None:
        self._by_id: dict[int, tuple[Any, int]] = {}
        self._by_value: dict[Any, int] = {}

    def config(self, config) -> int:
        hit = self._by_id.get(id(config))
        if hit is None or hit[0] is not config:
            token = self._by_value.setdefault(config, len(self._by_value))
            hit = self._by_id[id(config)] = (config, token)
        return hit[1]

    def matrix(self, matrix, *_):
        entries = [x for row in matrix.rows() for x in row]
        if all(x.denominator == 1 for x in entries):
            return matrix.n, tuple(x.numerator for x in entries)
        return matrix.rows()

    def ids(self, config, ids, *_):
        if not isinstance(ids, (Set, Sequence)):
            return None
        return self.config(config), tuple(ids)

    def id_set(self, config, ids, *_):
        if not isinstance(ids, (Set, Sequence)):
            return None
        return self.config(config), frozenset(ids)

    def state_curve(self, state, cid, *_):
        return self.config(state.config), state.contracted, state.base, cid


def _rows(matrix, *_):
    return matrix.n


def _ids(config, ids, *_):
    return len(ids) if isinstance(ids, (Set, Sequence)) else 0


class Tracer:
    def __init__(self) -> None:
        self._keys = _Keys()
        # name -> (argument key or None, (size, power, metric summing size**power) or None)
        cubed = (_rows, 3, "ratlin.rows_cubed")
        extras: dict[str, tuple[Callable | None, tuple | None]] = {
            "ratlin.is_negative_definite": (self._keys.matrix, cubed),
            "ratlin.solve_symmetric": (None, cubed),
            "ratlin.determinant": (None, cubed),
            "surface.gram": (self._keys.ids, (_ids, 2, "surface.gram.entries")),
            "crepant.crepant_pullback": (self._keys.id_set, None),
            "moves.is_log_flopping": (self._keys.state_curve, None),
            "moves.is_log_blowdown": (self._keys.state_curve, None),
        }
        self._extras = extras
        self.names = [f"{layer}.{name}" for layer, name in SPANS]
        self.counts = {metric: 0 for _, _, metric in COUNTS}
        self.sizes = {"ratlin.rows_cubed": 0, "surface.gram.entries": 0}
        self.distinct = {name: 0 for name, (key, _) in extras.items() if key}
        self._seen: dict[str, set] = {name: set() for name in self.distinct}
        self.func = array("H")
        self.parent = array("q")
        self.inner = array("q")
        self.outer = array("q")
        self._stack = [-1]
        self._restore: list[tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn: Callable, name: str) -> Callable:
        index = self.names.index(name)
        key_fn, size = self._extras.get(name, (None, None))
        seen = self._seen.get(name)
        func, parent, inner, outer, stack = self.func, self.parent, self.inner, self.outer, self._stack

        def wrapper(*args, **kwargs):
            pre = perf_counter_ns()
            if key_fn is not None:
                key = key_fn(*args)
                if key is None or key not in seen:
                    self.distinct[name] += 1
                    if key is not None:
                        seen.add(key)
            if size is not None:
                self.sizes[size[2]] += size[0](*args) ** size[1]
            span = len(func)
            func.append(index)
            parent.append(stack[-1])
            inner.append(0)
            outer.append(0)
            stack.append(span)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                inner[span] = end - start
                outer[span] = perf_counter_ns() - pre

        return update_wrapper(wrapper, fn)

    def _count(self, fn: Callable, metric: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return update_wrapper(wrapper, fn)

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function and rebind each name that refers to one."""
        targets = [(layer, name, self._span, f"{layer}.{name}") for layer, name in SPANS]
        targets += [(layer, name, self._count, metric) for layer, name, metric in COUNTS]
        functions: dict[int, tuple[Callable, Callable]] = {}
        for layer, name, make, label in targets:
            module = importlib.import_module(f"logsurf.{layer}")
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, cached_property):
                    replacement = cached_property(make(original.func, label))
                    replacement.__set_name__(cls, attr)
                else:
                    replacement = make(original, label)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, replacement)
            else:
                original = getattr(module, name)
                functions[id(original)] = (original, make(original, label))
        modules = [
            m for n, m in sys.modules.items() if n == "logsurf" or n.startswith("logsurf.")
        ]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-function and per-layer numbers of everything recorded so far."""
        n = len(self.func)
        children = [0] * n
        for span in range(n):
            p = self.parent[span]
            if p >= 0:
                children[p] += self.outer[span]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for span in range(n):
            f = self.func[span]
            calls[f] += 1
            self_ns[f] += self.inner[span] - children[span]
        out: dict[str, float] = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for name, c, ns in zip(self.names, calls, self_ns):
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = ns / 1e9
            layer_ns[name.split(".")[0]] += ns
            if name in self.distinct:
                out[f"{name}.distinct_ratio"] = self.distinct[name] / c if c else 0.0
        out.update(self.counts)
        out.update(self.sizes)
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        return out


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("distinct_ratio"):
        return "ratio"
    return "count"
