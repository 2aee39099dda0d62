"""Per-layer tracing of the stepfdr package from the outside.

Each layer is a public module-level name (or a ``RandomSource`` method)
that the package looks up at call time.  ``Tracer.install`` replaces
that name, in every stepfdr namespace that binds it, with a wrapper
that records a span; ``Tracer.uninstall`` puts the originals back.  No
file of the package changes.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op_id]``
and reduced to per-layer self time (span duration minus the time its
direct children cover) when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from stepfdr.quantiles import RandomSource

MODULES = ("regress", "dataio", "penalties", "quantiles", "selector", "simlab", "cli")


@dataclass(frozen=True)
class Layer:
    """One traced name.

    ``span`` is ``<module>.<layer>``; its self time is reported as
    ``<span>_s``.  ``only`` restricts the rebinding to the named
    modules; otherwise every stepfdr namespace that binds the original
    object is rebound.  ``count`` is ``(metric, unit, fn)``, where ``fn``
    maps a result to the metric's increment.
    """

    span: str
    home: str
    attr: str
    only: Optional[Tuple[str, ...]] = None
    calls: bool = False
    count: Optional[Tuple[str, str, Callable]] = None


def _sweep_steps(result) -> int:
    order, _, _ = result
    return len(order)


def _file_bytes(path) -> int:
    return path.stat().st_size


LAYERS = (
    Layer("regress.forward_sweep", "regress", "forward_sweep", calls=True,
          count=("regress.sweep_steps", "count", _sweep_steps)),
    Layer("regress.estimate_sigma2", "regress", "estimate_sigma2"),
    Layer("dataio.ingest", "dataio", "ingest"),
    Layer("dataio.expand", "dataio", "expand"),
    Layer("penalties.step_costs", "penalties", "step_costs"),
    Layer("penalties.penalty_table", "penalties", "penalty_table"),
    Layer("selector.stop", "selector", "stop", calls=True),
    # least_squares is also the full-model fit inside estimate_sigma2;
    # only the selector's binding is the refit of the chosen prefix.
    Layer("selector.refit", "selector", "least_squares", only=("selector",)),
    Layer("selector.msfdr_iterative", "selector", "msfdr_iterative"),
    Layer("simlab.run_config", "simlab", "run_config"),
    Layer("simlab.gen_design", "simlab", "gen_design"),
    Layer("simlab.gen_beta", "simlab", "gen_beta"),
    Layer("simlab.oracle", "simlab", "random_oracle"),
    Layer("simlab.oracle", "simlab", "path_prefix_mspe"),
    Layer("simlab.minimax_summary", "simlab", "minimax_summary"),
    Layer("cli.write_outcome", "cli", "write_outcome",
          count=("cli.bytes_written", "bytes", _file_bytes)),
    Layer("cli.read_outcome", "cli", "read_outcome"),
    Layer("cli.build_parser", "cli", "build_parser"),
    # A nonzero exit status is the CLI's way of reporting an error.
    Layer("cli.main", "cli", "main", count=("cli.errors", "count", lambda rc: int(rc != 0))),
)

# Spans around the random streams: the methods are looked up on the class.
RANDOM_SOURCE_METHODS = ("substream", "generator")

# About 500k calls for one penalty table at m=1000: counted, no spans.
COUNTED = (("quantiles.inverse_normal_cdf_calls", "quantiles", "inverse_normal_cdf"),)


def _namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "stepfdr" or name.startswith("stepfdr."))]


def per_layer_names():
    """Every per-layer metric name a traced run reports, with its unit."""
    names = {}
    for layer in LAYERS:
        if layer.calls:
            names[layer.span + "_calls"] = "count"
        names[layer.span + "_s"] = "s"
        if layer.count:
            names[layer.count[0]] = layer.count[1]
    names["quantiles.random_source_s"] = "s"
    for metric, _, _ in COUNTED:
        names[metric] = "count"
    for module in MODULES:
        names[module + ".errors"] = "count"
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = 0
        self._stack = []
        self._restore = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn: Callable, layer: Optional[Layer] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        errors = name.split(".", 1)[0] + ".errors"
        calls = name + "_calls" if layer is not None and layer.calls else None
        count = layer.count if layer is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if calls:
                counts[calls] += 1
            if count:
                counts[count[0]] += count[2](result)
            return result

        return wrapper

    def _counter(self, metric: str, fn: Callable) -> Callable:
        counts = self.counts
        errors = metric.split(".", 1)[0] + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise

        return wrapper

    def _rebind(self, home: str, attr: str, wrapper_for: Callable, only=None) -> None:
        original = getattr(sys.modules["stepfdr." + home], attr)
        wrapper = wrapper_for(original)
        for mod in _namespaces():
            short = mod.__name__.partition(".")[2]
            if only is not None and short not in only:
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))

    # -- lifecycle -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            self._rebind(layer.home, layer.attr,
                         lambda fn, layer=layer: self._span(layer.span, fn, layer), layer.only)
        for metric, home, attr in COUNTED:
            self._rebind(home, attr, lambda fn, metric=metric: self._counter(metric, fn))
        for attr in RANDOM_SOURCE_METHODS:
            original = RandomSource.__dict__[attr]
            setattr(RandomSource, attr, self._span("quantiles.random_source", original))
            self._restore.append((RandomSource, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds of self time per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e-9
        return out

    def metrics(self) -> dict:
        """Every per-layer metric, zero where the layer was not reached."""
        selfs = self.self_times()
        out = {}
        for name, unit in per_layer_names().items():
            if name.endswith("_s"):
                out[name] = (selfs.get(name[:-2], 0.0), unit)
            else:
                out[name] = (self.counts.get(name, 0), unit)
        return out
