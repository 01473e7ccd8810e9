"""Span tracing of each layer's public entry points, from outside ``src/``.

:func:`instrumented` wraps the functions and methods listed in
:data:`SPANS` for the duration of a ``with`` block and restores them
afterwards.  Each call records one span — name, start, end, parent span
and operation id — in flat arrays that stay in memory until the run
ends; :meth:`Tracer.summary` then derives every layer's call count,
inclusive time and self time (span time minus the time its child spans
cover).  Span names are ``<module>.<component>``, with ``<module>`` one
of the ``repro`` subpackages; ``bench.op`` is the benchmark's own
top-level span around each operation, so its self time is host time no
layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: The layers time is attributed to (``repro`` subpackages).
MODULES = ("workloads", "sim", "mem", "metadata", "crypto", "core", "crashsim", "runs")

#: Span name -> (module, attributes).  ``Class.method`` also wraps every
#: subclass override; a plain name is rebound wherever it was imported.
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "workloads.gen": ("repro.workloads.spec", ("spec_trace",)),
    "sim.runner": ("repro.sim.runner", ("run_simulation",)),
    "sim.cpu": ("repro.sim.cpu", ("TraceCPU.run",)),
    "sim.hierarchy": (
        "repro.sim.system",
        ("MemoryHierarchy.read", "MemoryHierarchy.write", "MemoryHierarchy.persist_line"),
    ),
    "sim.flush": ("repro.sim.system", ("MemoryHierarchy.flush",)),
    "mem.cache": (
        "repro.mem.cache",
        tuple(
            f"Cache.{m}"
            for m in ("probe", "access", "fill", "would_evict", "invalidate", "clean")
        ),
    ),
    "mem.nvm": (
        "repro.mem.nvm",
        tuple(
            f"NVMDevice.{m}"
            for m in ("read_line", "write_line", "write_partial", "peek", "poke")
        ),
    ),
    "mem.wpq": (
        "repro.mem.wpq",
        tuple(
            f"WritePendingQueue.{m}"
            for m in (
                "write", "write_partial", "write_atomic", "commit_atomic", "power_failure",
            )
        ),
    ),
    "mem.controller": (
        "repro.mem.controller",
        tuple(
            f"MemoryController.{m}"
            for m in ("read_line", "read_completion", "post_write", "post_writes", "drain_time")
        ),
    ),
    "metadata.genesis": ("repro.metadata.genesis", ("GenesisImage.line",)),
    "metadata.metacache": ("repro.metadata.metacache", ("MetadataStore.load_verified",)),
    "metadata.layout": (
        "repro.metadata.layout",
        tuple(
            f"MemoryLayout.{m}"
            for m in (
                "root_level", "parent_of", "children_of", "slot_in_parent",
                "ancestors_of_leaf", "counter_line_addr", "counter_leaf_index",
                "leaf_index_of_counter_addr", "block_slot", "data_hmac_location",
                "merkle_node_addr", "node_of_addr", "region_of",
                "metadata_addresses_for_writeback",
            )
        ),
    ),
    "metadata.merkle": (
        "repro.metadata.merkle",
        tuple(
            f"MerkleTree.{m}"
            for m in ("compute_root", "build", "find_mismatches", "verify_consistent")
        ),
    ),
    "crypto.cipher": (
        "repro.crypto.cme", ("CounterModeCipher.encrypt", "CounterModeCipher.decrypt"),
    ),
    "crypto.hmac": (
        "repro.crypto.hmac_engine",
        ("HmacEngine.data_hmac", "HmacEngine.counter_hmac", "HmacEngine.verify"),
    ),
    "crypto.prf": ("repro.crypto.prf", ("prf", "keyed_hash")),
    "core.build": ("repro.core.schemes", ("create_scheme",)),
    "core.writeback": ("repro.core.schemes.base", ("SecureNVMScheme.writeback",)),
    "core.read": ("repro.core.schemes.base", ("SecureNVMScheme.read",)),
    "core.scheme_flush": ("repro.core.schemes.base", ("SecureNVMScheme.flush",)),
    "core.recovery": ("repro.core.schemes.base", ("SecureNVMScheme.recover",)),
    "core.engine": (
        "repro.core.engine",
        tuple(
            f"EncryptionEngine.{m}"
            for m in ("write_data_block", "read_data_block", "reencrypt_page")
        ),
    ),
    "crashsim.campaign": ("repro.crashsim.explore", ("run_campaign",)),
    "crashsim.cell": ("repro.crashsim.explore", ("execute_cell",)),
    "crashsim.record": ("repro.crashsim.explore", ("record_trace",)),
    "crashsim.enumerate": (
        "repro.crashsim.enumerate", ("CrashEnumerator.states", "build_state", "applied_ops"),
    ),
    "crashsim.reduce": (
        "repro.crashsim.reduce",
        (
            "CrashStateReducer.__init__", "CrashStateReducer.fingerprint",
            "CrashStateReducer.pinned_candidates", "ReducedEnumerator._drop_sets",
            "materialize",
        ),
    ),
    "crashsim.classes": ("repro.crashsim.oracle", ("ClassOracle.submit",)),
    "crashsim.oracle": ("repro.crashsim.oracle", ("RecoveryOracle.evaluate",)),
    "runs.orchestrate": ("repro.runs.orchestrate", ("run_specs",)),
}

#: Span name of the benchmark's own wrapper around each operation.
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        #: Operation id stamped on every span opened from now on.
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """*fn* with every call recorded as one *name* span."""
        nid = self._id(name)
        open_, close = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens in next(), so each resumption
            # is its own span.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def run_op(self, op_id: int, fn):
        """Call *fn* inside a top-level :data:`OP_SPAN` span."""
        self.current_op = op_id
        return self.wrap(OP_SPAN, fn)()

    def summary(self, inclusive: tuple[str, ...] = ()) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``; for the names in
        *inclusive* also ``total_s``, the time of its outermost spans
        (a span nested in a same-name ancestor is not counted twice)."""
        k = len(self.names)
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        starts = np.frombuffer(self.start, dtype=np.int64)
        ends = np.frombuffer(self.end, dtype=np.int64)
        # A name's self time is its spans' time minus the time of every
        # span whose parent carries that name; chunked to bound memory.
        self_ns = np.zeros(k)
        for a in range(0, len(names), 1 << 20):
            b = a + (1 << 20)
            dur = (ends[a:b] - starts[a:b]).astype(np.float64)
            self_ns += np.bincount(names[a:b], weights=dur, minlength=k)
            nested = parents[a:b] >= 0
            self_ns -= np.bincount(
                names[parents[a:b][nested]], weights=dur[nested], minlength=k
            )
        calls = np.bincount(names, minlength=k)
        out = {
            name: {"calls": int(calls[i]), "self_s": float(self_ns[i] / 1e9)}
            for i, name in enumerate(self.names)
        }
        for name in inclusive:
            if name not in self._ids:
                continue
            nid = self._ids[name]
            total = 0
            for idx in np.flatnonzero(names == nid):
                p = parents[idx]
                while p >= 0 and names[p] != nid:
                    p = parents[p]
                if p < 0:
                    total += int(ends[idx] - starts[idx])
            out[name]["total_s"] = total / 1e9
        return out


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every entry point in :data:`SPANS` while the block runs."""
    undo: list[tuple[object, str, object]] = []
    try:
        for span, (module_name, attrs) in SPANS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    _wrap_method(getattr(module, cls_name), method, tracer, span, undo)
                else:
                    _wrap_function(module, attr, tracer, span, undo)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _wrap_function(module, attr, tracer, span, undo) -> None:
    original = getattr(module, attr)
    traced = tracer.wrap(span, original)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, traced)


def _wrap_method(cls, method, tracer, span, undo) -> None:
    classes, todo = [], [cls]
    while todo:
        klass = todo.pop()
        classes.append(klass)
        todo.extend(klass.__subclasses__())
    for klass in classes:
        raw = klass.__dict__.get(method)
        if raw is None or getattr(raw, "__isabstractmethod__", False):
            continue
        if isinstance(raw, property):
            traced = property(tracer.wrap(span, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            traced = tracer.wrap(span, raw)
        undo.append((klass, method, raw))
        setattr(klass, method, traced)
