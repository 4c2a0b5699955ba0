"""One graphreal CLI call with timing and counting wrappers installed.

    python3 perfbench/traced.py SPANS_FILE GRAPHREAL_ARGS...
    python3 perfbench/traced.py --adjacency-sets < multisets.json

The first form behaves like ``python3 -m graphreal GRAPHREAL_ARGS...`` (same
stdout, stderr and exit code) but first wraps the library's public
functions, at every module reference callers use, so that each call records
a span (name, start, end, parent).  Spans stay in memory and are written to
SPANS_FILE when the call ends; ``spans.py`` reads them back.  The program's
own files are not changed.

The second form times ``all_adjacency_sets`` over a JSON list of sorted
multisets and prints the seconds taken.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# (module, function) pairs wrapped as plain calls and as generators timed
# per resumption.
CALLS = [
    ("graphicality", "erdos_gallai_test"),
    ("graphicality", "havel_hakimi_construct"),
    ("constrained", "cg_test"),
    ("enumeration", "count_realizations"),
    ("sampling", "sample_weighted"),
    ("sampling", "estimate_count"),
    ("sampling", "molloy_reed_sample"),
    ("cli", "run"),
]
# A resumption of enumerate_all_parallel is the time its caller waits on the
# thread pool; what the caller does with each graph stays outside the span.
GENERATORS = [("enumeration", "enumerate_all"), ("enumeration", "enumerate_all_parallel")]
GRAPH_BUILD = "core.LabeledGraph"


class Tracer:
    """Spans in flat arrays, with one parent stack per thread."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            nid = self.name_ids.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def add(self, counter: str, value: int) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def call(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def generator(self, name, fn):
        """Each resumption of the generator is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item
            finally:
                inner.close()

        return wrapper

    def dump(self, path: str) -> None:
        header = {"names": self.names, "counters": self.counters, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tracer: Tracer) -> None:
    import graphreal
    from graphreal import cli, constrained, core, enumeration, graphicality, oracle, sampling

    modules = [graphreal, cli, constrained, core, enumeration, graphicality, oracle, sampling]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    def on_count(result):
        tracer.add("memo_entries", result.memo_entries)
        tracer.add("memo_hits", result.memo_hits)

    def on_mr(result):
        _, stats = result
        tracer.add("mr_samples", 1)
        tracer.add("mr_restarts", stats.restarts)
        tracer.add("mr_stub_connections", stats.stub_connections_made)

    hooks = {"count_realizations": on_count, "molloy_reed_sample": on_mr}
    wrapped = {}  # id of the original function -> its wrapper
    for mod, fn in CALLS:
        original = getattr(by_name[mod], fn)
        wrapped[id(original)] = tracer.call(f"{mod}.{fn}", original, hooks.get(fn))
    for mod, fn in GENERATORS:
        original = getattr(by_name[mod], fn)
        wrapped[id(original)] = tracer.generator(f"{mod}.{fn}", original)
    # Replace every module-level reference, since callers import by name.
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    graph = core.LabeledGraph
    graph.__init__ = tracer.call(GRAPH_BUILD, graph.__init__)


def run_cli(spans_path: str, argv: list[str]) -> None:
    tracer = Tracer()
    install(tracer)
    from graphreal import cli

    sys.argv = ["graphreal", *argv]
    try:
        cli.main()
    finally:
        tracer.dump(spans_path)


def time_adjacency_sets() -> None:
    from graphreal.enumeration import all_adjacency_sets

    multisets = json.load(sys.stdin)
    start = time.perf_counter()
    sizes = [len(all_adjacency_sets(m)) for m in multisets]
    elapsed = time.perf_counter() - start
    print(json.dumps({"seconds": elapsed, "sizes": sizes}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--adjacency-sets"]:
        time_adjacency_sets()
    else:
        run_cli(sys.argv[1], sys.argv[2:])
