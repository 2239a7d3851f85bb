"""External per-layer tracer for one campaign.

Every layer is measured from outside: ``layers.install`` replaces
public functions of the simulator's modules with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` knows it is being traced, and the program's own ``repro.obs``
phase timers stay off.

A span is opened for each wrapped call and closed when it returns.
Spans nest on one call stack (the simulator is single-threaded), so a
span's self time is its duration minus the durations of the spans it
directly contains.  Closed spans are folded into a call-path tree kept
in memory (one node per distinct path of span names, holding the span
count, total and self time); the tree is written out when the run
ends.  Folding instead of keeping one record per span keeps memory flat
on the workloads that make millions of monitoring and warehouse calls.

Host time spent inside simulation processes is attributed by wrapping
``Environment.process``: each generator is put behind
:class:`TimedGen`, a proxy whose ``send``/``throw`` open a span labelled
with the generator's qualified name.  Generator functions that other
layers drive with ``yield from`` (transfers, job tracking) get the same
proxy.  Callbacks registered through ``Event.add_callback`` are wrapped
too, labelled by their qualified name.  Each span is charged to the
layer that owns the module of the code it runs (:data:`LAYER_OF`).

Only the first ``Environment.run`` call of a campaign (the campaign
itself) is traced.  The drain grace and the invariant audit after it run
with every wrapper passing straight through.
"""

from __future__ import annotations

import time
from collections import Counter

#: module prefix -> layer; the longest matching prefix wins.  Modules
#: not listed (chaos drills, experiment runners) are charged to "other".
LAYER_OF = {
    "repro.sim": "sim",
    "repro.core.server": "server",
    "repro.core.dag_reducer": "server",
    "repro.core.feedback": "server",
    "repro.core.prediction": "server",
    "repro.core.recovery": "server",
    "repro.core.states": "server",
    "repro.core.serialize": "server",
    "repro.core.algorithms": "algorithms",
    "repro.core.policies": "policies",
    "repro.core.warehouse": "warehouse",
    "repro.core.client": "client",
    "repro.core.tracker": "client",
    "repro.services.rls": "rls",
    "repro.services.monitoring": "monitoring",
    "repro.services.mds": "monitoring",
    "repro.services.rpc": "rpc",
    "repro.chaos.bus": "rpc",
    "repro.services.condorg": "grid",
    "repro.simgrid.site": "grid",
    "repro.simgrid.local_scheduler": "grid",
    "repro.simgrid.failures": "grid",
    "repro.services.gridftp": "network",
    "repro.simgrid.network": "network",
    "repro.simgrid.background": "background",
    "repro.federation": "federation",
    "repro.simgrid.grid": "setup",
    "repro.workflow": "setup",
}

#: every layer a span can be charged to, in report order
LAYERS = ("sim", "server", "algorithms", "policies", "warehouse", "rls",
          "monitoring", "rpc", "client", "grid", "network", "background",
          "federation", "setup", "other")

_perf = time.perf_counter


def layer_of(module: str | None) -> str:
    """The layer owning ``module`` (see :data:`LAYER_OF`)."""
    while module:
        layer = LAYER_OF.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return "other"


def gen_identity(gen) -> tuple[str, str]:
    """(qualified name, layer) of a generator or generator-like body."""
    if isinstance(gen, TimedGen):
        return gen.label, gen.layer
    frame = getattr(gen, "gi_frame", None)
    module = frame.f_globals.get("__name__") if frame is not None else \
        type(gen).__module__
    qualname = getattr(gen, "__qualname__", type(gen).__qualname__)
    return qualname, layer_of(module)


class Node:
    """One call path: spans with this name under this parent path."""

    __slots__ = ("name", "layer", "parent", "children", "count", "total",
                 "self_s")

    def __init__(self, name: str, layer: str, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.count = 0
        self.total = 0.0
        self.self_s = 0.0

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name, "layer": self.layer, "count": self.count,
            "total_s": self.total, "self_s": self.self_s,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    """Span stack, call-path tree and boundary counters for one run."""

    def __init__(self):
        self.active = False
        self.root = Node("<root>", "other", None)
        self._node = self.root
        #: per open span: start time and the time its children covered
        self._starts: list[float] = []
        self._covered: list[float] = [0.0]
        self.counts: Counter = Counter()
        self.tick_ms: list[float] = []
        self.run_node: Node | None = None
        self.run_balanced = False
        self._patches: list[tuple[object, str, object]] = []
        #: nesting of choose_site calls and feasibility filters, and
        #: whether the open server tick reached choose_site
        self.choose_depth = 0
        self.feasible_depth = 0
        self.tick_useful = False
        #: count-only boundaries: LRC probes, LRC hits, quota probes
        self.probes = [0, 0, 0]

    # -- spans ---------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of open spans."""
        return len(self._starts)

    @property
    def current(self) -> Node:
        """The call-path node of the innermost open span."""
        return self._node

    def enter(self, name: str, layer: str) -> None:
        parent = self._node
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name, layer, parent)
        self._node = node
        self._covered.append(0.0)
        self._starts.append(_perf())

    def exit(self) -> float:
        end = _perf()
        dur = end - self._starts.pop()
        covered = self._covered.pop()
        node = self._node
        node.count += 1
        node.total += dur
        node.self_s += dur - covered
        self._covered[-1] += dur
        self._node = node.parent
        return dur

    def span(self, fn, name: str, layer: str):
        """``fn`` wrapped in a span (a pass-through while inactive)."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, cls, attr: str, layer: str) -> None:
        fn = cls.__dict__[attr]
        self.patch(cls, attr, self.span(fn, f"{cls.__name__}.{attr}", layer))

    def patch_gen(self, cls, attr: str, layer: str, on_return=None) -> None:
        """Make a generator method hand out :class:`TimedGen` proxies."""
        fn = cls.__dict__[attr]
        label = f"{cls.__name__}.{attr}"
        tracer = self

        def make(*args, **kwargs):
            if tracer.active:
                tracer.counts["call:" + label] += 1
            return TimedGen(tracer, fn(*args, **kwargs), label, layer,
                            on_return)

        self.patch(cls, attr, make)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------
    def by_name(self, root: Node | None = None) -> dict[str, list]:
        """name -> [count, total_s, self_s] summed over call paths."""
        out: dict[str, list] = {}
        for node in (root or self.root).walk():
            if node is self.root:
                continue
            agg = out.setdefault(node.name, [0, 0.0, 0.0])
            agg[0] += node.count
            agg[1] += node.total
            agg[2] += node.self_s
        return out

    def layer_self(self, root: Node) -> dict[str, float]:
        """layer -> self seconds of every span inside ``root``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for node in root.walk():
            out[node.layer] += node.self_s
        return out


class TimedGen:
    """A generator proxy that times each resumption as a span.

    ``Process`` and ``yield from`` only need ``send``/``throw``/
    ``close`` and iteration, so the proxy is invisible to the program:
    the wrapped generator sees the same values, exceptions and return.
    """

    __slots__ = ("_tracer", "_gen", "label", "layer", "_on_return")

    def __init__(self, tracer: Tracer, gen, label: str, layer: str,
                 on_return=None):
        self._tracer = tracer
        self._gen = gen
        self.label = label
        self.layer = layer
        self._on_return = on_return

    @property
    def __name__(self) -> str:
        return getattr(self._gen, "__name__", self.label)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def _resume(self, step, *args):
        tracer = self._tracer
        if not tracer.active:
            return step(*args)
        tracer.enter(self.label, self.layer)
        try:
            return step(*args)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            tracer.exit()

    def close(self):
        return self._gen.close()
