"""Outside-in per-layer tracing of qmeter.

The tracer wraps public functions of the qmeter modules from outside the
package: nothing under ``src/`` changes. Several modules import functions by
name (``from .backaction import averaged_disturbance``), so wrapping only the
defining module would miss their calls; ``install`` therefore rebinds the
wrapper in every loaded ``qmeter`` module that holds the original object.

Each wrapped call is a span. Spans nest through a stack of child-time
accumulators, so a layer's self time is its duration minus the time of the
wrapped calls it made. Counts are aggregated per span name in memory; hooks
attached to some spans add counters measured where the work happens (joint
retrodictions kept, bytes serialized, Monte Carlo blocks run).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field

# (span name, defining module, attribute). Span names are the layer metric
# prefixes printed by the benchmark.
SPANS = (
    ("backaction.averaged_disturbance", "qmeter.backaction", "averaged_disturbance"),
    ("backaction.joint_retrodictions", "qmeter.backaction", "joint_retrodictions"),
    ("backaction.resolution_disturbance_check", "qmeter.backaction",
     "resolution_disturbance_check"),
    ("measurement.retrodictive_operator", "qmeter.measurement", "retrodictive_operator"),
    ("measurement.optimal_estimate", "qmeter.measurement", "optimal_estimate"),
    ("measurement.resolution_pair_check", "qmeter.measurement", "resolution_pair_check"),
    ("measurement.validate_completeness", "qmeter.measurement", "validate_completeness"),
    ("operators.eigendecompose", "qmeter.operators", "eigendecompose"),
    ("operators.commutator", "qmeter.operators", "commutator"),
    ("characterize.characterize", "qmeter.characterize", "characterize"),
    ("verify.run_verification_suite", "qmeter.verify", "run_verification_suite"),
    ("scenarios.qnd_preset", "qmeter.scenarios", "qnd_preset"),
    ("scenarios.eavesdrop_simulation", "qmeter.scenarios", "eavesdrop_simulation"),
    ("cli.main", "qmeter.cli", "main"),
    ("serialization.report_json_bytes", "qmeter.serialization", "report_json_bytes"),
    ("serialization.write_table", "qmeter.serialization", "write_table"),
    # One random case of the verification suite: its Philox substream and
    # draws, excluding the eigendecompositions it calls.
    ("verify.random_draw", "qmeter.verify", "_case_for"),
)

# Monte Carlo trials per substream block (scenarios.TRIAL_BLOCK at the seed
# commit); fixed here so the per-block figure keeps one meaning.
TRIAL_BLOCK = 4096


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Counters:
    joint_kept: int = 0
    joint_tried: int = 0
    json_bytes: int = 0
    table_bytes: int = 0
    mc_blocks: int = 0


@dataclass
class Tracer:
    """Wraps the SPANS functions; ``install``/``uninstall`` bracket a traced run."""

    stats: dict = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    originals: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _rebound: list = field(default_factory=list)

    def reset(self) -> None:
        self.stats = {name: SpanStats() for name, _, _ in SPANS}
        self.counters = Counters()
        self._stack.clear()

    def install(self) -> None:
        self.reset()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qmeter" or n.startswith("qmeter."))]
        hooks = self._hooks()
        for span, module_name, attr in SPANS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:  # layer function gone: its metrics stay 0
                continue
            self.originals[span] = original
            wrapper = self._wrap(span, original, hooks.get(span))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._rebound.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._rebound):
            setattr(module, name, original)
        self._rebound.clear()

    def _wrap(self, span, original, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = self.stats[span]
                stats.calls += 1
                stats.self_s += elapsed - child
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        def joint(args, kwargs, result):
            observable = args[1] if len(args) > 1 else kwargs["observable"]
            self.counters.joint_kept += len(result)
            self.counters.joint_tried += observable.dim

        def json_bytes(args, kwargs, result):
            self.counters.json_bytes += len(result)

        def table(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            self.counters.table_bytes += os.path.getsize(path)

        def eavesdrop(args, kwargs, result):
            config = args[0] if args else kwargs["config"]
            self.counters.mc_blocks += math.ceil(config.trials / TRIAL_BLOCK)

        return {
            "backaction.joint_retrodictions": joint,
            "serialization.report_json_bytes": json_bytes,
            "serialization.write_table": table,
            "scenarios.eavesdrop_simulation": eavesdrop,
        }
