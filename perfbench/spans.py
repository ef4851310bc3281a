"""In-memory span recorder and the runtime wrappers that feed it.

The benchmark never edits the program: :func:`install` replaces a
fixed list of public functions and methods with timing wrappers at run
time, from this file.  Each call becomes a span ``(name, start, end,
parent, rid)``; the parent is the innermost open span of the same
thread and ``rid`` the request id the thread is serving, if any.
Spans stay in memory until :meth:`Recorder.dump` writes them out.

Functions are patched where the caller looks them up: a module that
did ``from x import f`` holds its own reference, so e.g. mining's
support check is patched in ``repro.mining.grami`` and the facade's
miner entry in ``repro.search``.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from stats import self_time


class Recorder:
    """Spans, counters and samples of one process, kept in memory."""

    def __init__(self) -> None:
        #: while False the wrappers call straight through and record
        #: nothing, so one run can time the same work untraced
        self.enabled = True
        self.spans: list[tuple[str, float, float, int | None, str | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- request scoping ------------------------------------------------
    @property
    def rid(self) -> str | None:
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value: str | None) -> None:
        self._local.rid = value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        # the slot is reserved before the call so children can name it
        # as their parent; it is filled in when the call returns.  Other
        # threads append too, so reading the length and appending is
        # one step under the lock
        with self._lock:
            slot = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.rid))
        stack.append(slot)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[slot] = (name, start, end, parent, self.rid)

    def reset(self) -> None:
        """Forget everything recorded so far (call with no span open)."""
        self.spans.clear()
        self.counters.clear()
        self.samples.clear()

    def count(self, name: str, n: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] += n

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            self.samples[name].append(value)

    # -- reading ----------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _r in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _n, start, end, parent, _r in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        return sum(
            self_time(start, end, children.get(slot, ()))
            for slot, (n, start, end, _p, _r) in enumerate(self.spans)
            if n == name
        )

    def by_rid(self, name: str) -> dict[str, float]:
        """Duration of each ``name`` span keyed by its request id."""
        return {
            rid: end - start
            for n, start, end, _p, rid in self.spans
            if n == name and rid is not None
        }

    def dump(self, path: Path) -> None:
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "rid": r}
                for n, s, e, p, r in self.spans
            ],
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Recorder":
        doc = json.loads(path.read_text(encoding="utf-8"))
        rec = cls()
        rec.spans = [
            (d["name"], d["start"], d["end"], d["parent"], d["rid"])
            for d in doc["spans"]
        ]
        rec.counters.update(doc["counters"])
        rec.samples.update(doc["samples"])
        return rec


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``, keeping its kind."""
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        setattr(owner, attr, classmethod(make(static.__func__)))
    else:
        setattr(owner, attr, make(getattr(owner, attr)))


def _span(rec: Recorder, name: str, after=None):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = rec.call(name, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    return make


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.index.instance_index as instance_index
    import repro.mining.grami as grami
    import repro.search as search
    from repro.index.vectors import MetagraphVectors
    from repro.learning.model import ProximityModel
    from repro.learning.trainer import Trainer
    from repro.search import SemanticProximitySearch
    from repro.serving.backend import InProcessBackend, SubprocessBackend
    from repro.serving.frontend import BatchCoalescer, QueryFrontend, _FrontendHandler
    from repro.serving.router import QueryRouter

    def embeddings(matrix) -> None:
        rec.count("matching.embeddings", int(matrix.shape[0]))

    def instances(counts) -> None:
        rec.count("index.instances", counts.num_instances)

    _patch(search, "mine_catalog", _span(rec, "mining.mine_catalog"))
    _patch(grami, "mni_support", _span(rec, "mining.mni_support"))
    _patch(
        instance_index,
        "compiled_embedding_matrix",
        _span(rec, "matching.compiled_embedding_matrix", embeddings),
    )
    _patch(
        instance_index,
        "compiled_match_and_count",
        _span(rec, "index.compiled_match_and_count", instances),
    )
    _patch(MetagraphVectors, "compile", _span(rec, "index.compile"))
    _patch(SemanticProximitySearch, "save_index", _span(rec, "index.save_index"))
    _patch(SemanticProximitySearch, "from_index", _span(rec, "index.from_index"))
    _patch(
        SemanticProximitySearch,
        "refresh_serving",
        _span(rec, "search.refresh_serving"),
    )
    _patch(Trainer, "train", _span(rec, "learning.train"))
    _patch(ProximityModel, "compile", _span(rec, "learning.model_compile"))
    _patch(QueryRouter, "rank_many", _span(rec, "serving.rank_many"))
    _patch(InProcessBackend, "score_group", _span(rec, "serving.score_group"))
    _patch(SubprocessBackend, "score_group", _span(rec, "serving.score_group"))
    _patch(QueryFrontend, "query", _span(rec, "serving.frontend_query"))

    def handle_query(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            # the request id the load generator sent, for the spans below
            rec.rid = self.headers.get("X-Request-Id")
            try:
                return original(self, *args, **kwargs)
            finally:
                rec.rid = None

        return wrapper

    _patch(_FrontendHandler, "_handle_query", handle_query)

    # coalescer wait: from a query's submit to the start of its batch
    submitted: dict[int, float] = {}

    def submit(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            now = time.perf_counter()
            future = original(self, *args, **kwargs)
            # a full batch may already have run on the pool; its wait
            # is then lost rather than charged to a recycled id later
            if rec.enabled and not future.done():
                submitted[id(future)] = now
            return future

        return wrapper

    def run_batch(original):
        @functools.wraps(original)
        def wrapper(self, batch):
            now = time.perf_counter()
            for future in list(batch.futures):
                start = submitted.pop(id(future), None)
                if start is not None:
                    rec.sample("serving.coalescer_wait_s", now - start)
            return original(self, batch)

        return wrapper

    _patch(BatchCoalescer, "submit", submit)
    _patch(BatchCoalescer, "_run_batch", run_batch)
