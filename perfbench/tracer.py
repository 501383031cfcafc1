"""Outside-in tracer: times calls into epicsim's public functions by rebinding them.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces each
traced function, in every ``epicsim`` module namespace that holds it, with a
wrapper that records a span; ``Tracer.restore`` puts every original back and
checks by identity that it did.

Spans are aggregated as they close, per span name, into
``[calls, total_ns, child_ns]``; self time is ``total_ns - child_ns``.  The
per-packet spans close several hundred thousand times a run, so no per-span
record is kept.
"""

from __future__ import annotations

import functools
import heapq
import sys
import time

from epicsim import adapt, kpi, netem, orchestrator, render, rng, session, transport

# (span name, owner, attribute).  An owner that is a class has its method
# rebound on the class; a module-level function is rebound wherever an
# epicsim module holds the same object.
SPANS = (
    ("netem.submit", netem.Path, "submit"),
    ("netem.advance_to", netem.Path, "advance_to"),
    ("transport.fragment", transport, "fragment"),
    ("transport.encode_fragment", transport, "encode_fragment"),
    ("transport.decode_message", transport, "decode_message"),
    ("transport.decode_fragment", transport, "decode_fragment"),
    ("transport.reassembler_offer", transport.Reassembler, "offer"),
    ("render.render", render.Renderer, "render"),
    ("render.frame_payload", render, "frame_payload"),
    ("render.decode_check", render, "decode_check"),
    ("rng.fill_bytes", rng.SplitMix64, "fill_bytes"),
    ("session.run_session", session, "run_session"),
    ("adapt.controller_step", adapt, "controller_step"),
    ("adapt.detect_bottleneck", adapt, "detect_bottleneck"),
    ("adapt.bottleneck_causes", adapt, "bottleneck_causes"),
    ("kpi.build_report", kpi, "build_report"),
    ("orchestrator.parse_scenario", orchestrator, "parse_scenario"),
    ("orchestrator.scale_clients", orchestrator, "scale_clients"),
    ("orchestrator.deploy_handshake", orchestrator, "deploy_handshake"),
    ("orchestrator.run_scenario", orchestrator, "run_scenario"),
)


_ORIGINALS = {(owner, attr): owner.__dict__[attr] for _, owner, attr in SPANS}
_ORIGINALS.update({(kpi, "load_search"): kpi.load_search, (kpi, "stress_search"): kpi.stress_search,
                   (render.Renderer, "__init__"): render.Renderer.__init__,
                   (transport.Reassembler, "__init__"): transport.Reassembler.__init__})


class _HeapShim:
    """Stands in for ``heapq`` inside ``epicsim.session`` so heap calls are spans."""

    def __init__(self, heappush, heappop):
        self.heappush = heappush
        self.heappop = heappop

    def __getattr__(self, name):
        return getattr(heapq, name)


class Rebinder:
    """Rebinds names in epicsim modules and classes, and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def rebind_everywhere(self, original, replacement) -> None:
        """Rebind `original` under every name any epicsim module holds it by."""
        for mod in _epicsim_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.rebind(mod, attr, replacement)

    def restore(self) -> None:
        """Restore every rebound name; raise if any is not the original afterwards."""
        undo, self._undo = self._undo, []
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        stale = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in undo if owner.__dict__[attr] is not original]
        if stale or not _pristine():
            raise RuntimeError(f"names left rebound: {stale or 'identity check failed'}")


class Tracer(Rebinder):
    """Rebinds epicsim's public functions while installed; see the module docstring."""

    def __init__(self):
        super().__init__()
        self.stats: dict[str, list[int]] = {}
        self._stack: list[list[int]] = [[0]]
        self.renderers: list = []
        self.reassemblers: list = []
        self.traces: list = []
        self.payload_bytes = 0
        self.search_runs = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += cell[0]
            if on_return is not None:
                on_return(result)
            return result

        return functools.wraps(fn)(traced)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def self_s(self, *names: str) -> float:
        total = 0
        for name in names:
            _, spent, child = self.stats.get(name, [0, 0, 0])
            total += spent - child
        return total / 1e9

    # -- installing ----------------------------------------------------------

    def _on_payload(self, payload: bytes) -> None:
        self.payload_bytes += len(payload)

    def _count_search(self, search):
        def counted(run, *args, **kwargs):
            def run_counted(n):
                self.search_runs += 1
                return run(n)
            return search(run_counted, *args, **kwargs)
        return self._span(f"kpi.{search.__name__}", counted)

    def _record_instances(self, cls, into: list) -> None:
        init = cls.__init__

        def recording_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)

        self.rebind(cls, "__init__", recording_init)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {"render.frame_payload": self._on_payload,
                 "session.run_session": self.traces.append}
        for name, owner, attr in SPANS:
            original = owner.__dict__[attr]
            wrapped = self._span(name, original, hooks.get(name))
            if isinstance(owner, type):
                self.rebind(owner, attr, wrapped)
            else:
                self.rebind_everywhere(original, wrapped)
        for search in (kpi.load_search, kpi.stress_search):
            self.rebind_everywhere(search, self._count_search(search))
        self.rebind(session, "heapq", _HeapShim(
            self._span("session.heap_push", heapq.heappush),
            self._span("session.heap_pop", heapq.heappop)))
        self._record_instances(render.Renderer, self.renderers)
        self._record_instances(transport.Reassembler, self.reassemblers)


def _epicsim_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "epicsim" or name.startswith("epicsim."))]


def _pristine() -> bool:
    """Identity checks that every traced name is the real function again."""
    return (all(owner.__dict__[attr] is fn for (owner, attr), fn in _ORIGINALS.items())
            and session.encode_fragment is transport.encode_fragment
            and session.decode_message is transport.decode_message
            and session.run_session is orchestrator.run_session
            and orchestrator.build_report is kpi.build_report
            and session.heapq is heapq)
