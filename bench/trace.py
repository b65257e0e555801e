"""Per-layer spans, recorded from outside the program.

The traced child replaces the public callables listed in :data:`TARGETS`
with timing wrappers at start-up (nothing under ``src/`` is edited).  Each
call appends one ``[name, start, end, parent]`` record to an in-memory list;
self time is a span's duration minus what its direct child spans cover.

Resolution is by dotted name at run time and tolerant: a target that no
longer exists yields no metric and is listed in ``Tracer.unresolved``.  A
method is wrapped on the named class and on every loaded subclass that
overrides it; a module-level function is re-bound in every loaded
``repro.*`` module that holds the original object (``from m import f``
copies the reference, so patching ``m.f`` alone would leave those call
sites untraced).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: layer (module name) -> (short name, dotted target).  The metric names are
#: ``<layer>.<short>_calls`` and ``<layer>.<short>_s``.
TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sched.kernel": (("step", "repro.sched.kernel.SimulationKernel.step"),),
    "core.aggregator": tuple(
        (short, f"repro.core.aggregator.UnifyFLAggregator.{short}")
        for short in (
            "local_training_round",
            "submit_local_model",
            "score_assigned",
            "build_global_model",
            "record_round",
            "fetch_weights",
        )
    ),
    "fl.client": (("fit", "repro.fl.client.Client.fit"),),
    "ml.models": (
        ("evaluate", "repro.ml.models.Model.evaluate"),
        ("clone", "repro.ml.models.Model.clone"),
    ),
    "core.scorer": (
        ("score", "repro.core.scorer.Scorer.score"),
        ("score_round", "repro.core.scorer.Scorer.score_round"),
    ),
    "fl.strategy": (
        ("aggregate", "repro.fl.strategy.Strategy.aggregate"),
        ("aggregate_stream", "repro.fl.strategy.Strategy.aggregate_stream"),
        ("average_weights", "repro.ml.tensor_utils.average_weights"),
    ),
    "ml.serialization": (
        ("weights_to_bytes", "repro.ml.serialization.weights_to_bytes"),
        ("weights_from_bytes", "repro.ml.serialization.weights_from_bytes"),
        ("weights_checksum", "repro.ml.serialization.weights_checksum"),
    ),
    "ipfs": (
        ("add", "repro.ipfs.node.IPFSNode.add"),
        ("get", "repro.ipfs.node.IPFSNode.get"),
        ("fetch", "repro.ipfs.swarm.IPFSSwarm.fetch"),
        ("compute_cid", "repro.ipfs.cid.compute_cid"),
    ),
    "chain": (
        ("send", "repro.chain.blockchain.Blockchain.send"),
        ("mine_block", "repro.chain.blockchain.Blockchain.mine_block"),
        ("call", "repro.chain.blockchain.Blockchain.call"),
    ),
    "simnet.network": tuple(
        (short, f"repro.simnet.network.LinkScheduler.{short}")
        for short in ("plan_and_commit", "estimate", "preview", "outstanding_backlog")
    ),
    "sched.actors": (
        ("upload", "repro.sched.actors.NetworkActor.upload"),
        ("download", "repro.sched.actors.NetworkActor.download"),
        ("exchange", "repro.sched.actors.NetworkActor.exchange"),
        ("select_replica", "repro.sched.actors.NetworkActor.select_replica"),
        ("interact", "repro.sched.actors.ChainActor.interact"),
    ),
    "core.runner": (
        ("init", "repro.core.runner.ExperimentRunner.__init__"),
        ("build", "repro.core.runner.ExperimentRunner.build"),
        ("round_aggregators", "repro.core.runner.ClientPopulation.round_aggregators"),
    ),
    "core.sampling": (("cohort", "repro.core.sampling.ClientSampler.cohort"),),
}

#: byte counters taken at a span boundary: span name -> (counter, size of).
BYTE_COUNTERS: Dict[str, Tuple[str, Callable[[tuple, Any], int]]] = {
    "ml.serialization.weights_to_bytes": (
        "ml.serialization.bytes_out",
        lambda args, result: len(result),
    ),
    "ml.serialization.weights_from_bytes": (
        "ml.serialization.bytes_in",
        lambda args, result: len(args[0]),
    ),
}

#: the policy layer has no callable of its own to wrap: its code runs as the
#: actions the kernel dispatches, so the scheduling calls are wrapped and the
#: action they are handed is replaced by a span around it.
ACTION_SPAN = "sched.policies.action"
ACTION_SCHEDULERS = (
    "repro.sched.kernel.SimulationKernel.schedule_at",
    "repro.sched.kernel.SimulationKernel.schedule_after",
)
POLICY_LAYER = "sched.policies"

LAYERS: Tuple[str, ...] = tuple(sorted([*TARGETS, POLICY_LAYER]))


def layer_of(span_name: str) -> Optional[str]:
    """The layer a span belongs to; ``None`` for the per-leg root spans."""
    if span_name == ACTION_SPAN:
        return POLICY_LAYER
    layer = span_name.rsplit(".", 1)[0]
    return layer if layer in TARGETS else None


def _resolve(dotted: str) -> Optional[Tuple[Any, str]]:
    """``(owner, attribute)`` for a dotted target, or ``None`` if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
        if owner is None or not isinstance(
            getattr(owner, parts[-1], None), types.FunctionType
        ):
            return None
        return owner, parts[-1]
    return None


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: one ``[name index, start, end, parent index]`` per span, in start
        #: order; times are ``perf_counter`` seconds since the tracer was made.
        self.records: List[List[Any]] = []
        self.counters: Dict[str, int] = {counter: 0 for counter, _ in BYTE_COUNTERS.values()}
        self.unresolved: List[str] = []
        self._origin = time.perf_counter()
        self._stack: List[int] = []
        self._active: List[bool] = []

    # ------------------------------------------------------------- recording
    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._active.append(False)
        return self.names.index(name)

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with a span named ``name`` around every outermost call.

        A call made while a span of the same name is open — an override
        calling ``super()``, or recursion — runs inside that span and is not
        counted again.
        """
        index = self._name_index(name)
        records, stack, active, origin = self.records, self._stack, self._active, self._origin
        clock = time.perf_counter
        counter, size_of = BYTE_COUNTERS.get(name, (None, None))
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if active[index]:
                return func(*args, **kwargs)
            active[index] = True
            record = [index, clock() - origin, 0.0, stack[-1] if stack else -1]
            stack.append(len(records))
            records.append(record)
            try:
                result = func(*args, **kwargs)
                if counter is not None:
                    counters[counter] += size_of(args, result)
                return result
            finally:
                record[2] = clock() - origin
                stack.pop()
                active[index] = False

        return traced

    # ------------------------------------------------------------ installing
    def install(self) -> None:
        """Wrap every target that still exists; note the ones that do not."""
        for layer, targets in TARGETS.items():
            for short, dotted in targets:
                if not self._install(f"{layer}.{short}", dotted, self.wrap):
                    self.unresolved.append(dotted)
        for dotted in ACTION_SCHEDULERS:
            if not self._install(ACTION_SPAN, dotted, self._wrap_scheduler):
                self.unresolved.append(dotted)

    def _install(self, name: str, dotted: str, wrap: Callable[[str, Callable], Callable]) -> bool:
        resolved = _resolve(dotted)
        if resolved is None:
            return False
        owner, attribute = resolved
        if isinstance(owner, type):
            for cls in (owner, *_subclasses(owner)):
                original = vars(cls).get(attribute)
                if isinstance(original, types.FunctionType):
                    setattr(cls, attribute, wrap(name, original))
            return True
        original = getattr(owner, attribute)
        replacement = wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
        return True

    def _wrap_scheduler(self, name: str, schedule: Callable) -> Callable:
        """``schedule_at`` / ``schedule_after`` with the action put in a span."""

        @functools.wraps(schedule)
        def scheduling(kernel, when, action, *args, **kwargs):
            return schedule(kernel, when, self.wrap(name, action), *args, **kwargs)

        return scheduling

    # ------------------------------------------------------------- reporting
    def summarise(self) -> Dict[str, Any]:
        """Calls, inclusive and self seconds per span name, and the coverage.

        ``coverage_ratio`` is the share of the root spans' time that falls
        inside some named layer's span, so time the benchmark cannot
        attribute (the roots' own self time) counts against it.
        """
        covered = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent >= 0:
                covered[parent] += end - start
        spans: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        root_s = root_self_s = 0.0
        for (index, start, end, _), inside in zip(self.records, covered):
            name = self.names[index]
            entry = spans[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inside
            if layer_of(name) is None:
                root_s += end - start
                root_self_s += end - start - inside
        layers = {layer: 0.0 for layer in LAYERS}
        for name, entry in spans.items():
            layer = layer_of(name)
            if layer is not None:
                layers[layer] += entry["self_s"]
        return {
            "spans": spans,
            "layer_self_s": layers,
            "counters": dict(self.counters),
            "coverage_ratio": 1.0 - root_self_s / root_s if root_s > 0 else 0.0,
            "unresolved": list(self.unresolved),
        }

    def document(self) -> Dict[str, Any]:
        """The raw spans, for ``bench/out/trace_<workload>.json``."""
        return {
            "columns": ["name", "start_s", "end_s", "parent"],
            "names": self.names,
            "records": [
                [index, round(start, 7), round(end, 7), parent]
                for index, start, end, parent in self.records
            ],
        }
