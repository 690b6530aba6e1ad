"""Out-of-program tracing: spans and counters recorded around public calls.

The benchmark never edits the program.  A :class:`Tracer` wraps the
functions at each layer boundary (module functions at every module that
binds them, class methods on the class) and records one span per call:
name, start, end, the span that caused it, and the operation it belongs
to.  Spans are kept in memory per thread and written out when the run
ends.  A span's *self time* is its duration minus the durations of its
child spans; summed over one operation's spans, self times add up to the
operation's wall time, so what no layer claims shows up as the self time
of the operation's own root span (``unattributed``).

Only the socket layer crosses threads: the server thread that serves a
request has no span of its own on its stack, so its root span adopts the
client span that is waiting for the reply (the benchmark runs one remote
client, closed loop, so that span is unambiguous).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# A span record is a list, mutated in place so children can charge time to
# their parent without looking it up: [name, start, end, parent, op, child].
NAME, START, END, PARENT, OP, CHILD = range(6)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[list] = []
        self.op: Optional[int] = None
        self.spans: Optional[List[list]] = None
        self.counts: Optional[Dict[str, int]] = None


class Tracer:
    """Records spans and counters around the calls it is asked to wrap."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._lock = threading.Lock()
        #: every thread's span list and counter dict, for the final merge
        self._span_lists: List[List[list]] = []
        self._count_dicts: List[Dict[str, int]] = []
        #: the client span a server thread's root span adopts (socket layer)
        self.remote_parent: Optional[list] = None
        self._patches: List[Tuple[Any, str, Any]] = []
        #: wrappers record only while this is set; patches go in before
        #: set-up (the program keeps bound methods, e.g. commit hooks) and
        #: recording starts with the pass
        self.enabled = False

    # -- per-thread state ---------------------------------------------------

    def _thread(self) -> _ThreadState:
        local = self._local
        if local.spans is None:
            local.spans = []
            local.counts = defaultdict(int)
            with self._lock:
                self._span_lists.append(local.spans)
                self._count_dicts.append(local.counts)
        return local

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self._thread().counts[name] += amount

    def counts(self) -> Dict[str, int]:
        """Counters summed over every thread."""
        total: Dict[str, int] = defaultdict(int)
        with self._lock:
            dicts = list(self._count_dicts)
        for counts in dicts:
            for name, value in list(counts.items()):
                total[name] += value
        return total

    def spans(self) -> List[list]:
        with self._lock:
            lists = list(self._span_lists)
        return [span for spans in lists for span in spans]

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> list:
        local = self._thread()
        stack = local.stack
        if stack:
            parent = stack[-1]
            op = parent[OP]
        else:
            parent = self.remote_parent
            op = local.op if parent is None else parent[OP]
        span = [name, 0.0, 0.0, parent, op, 0.0]
        local.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = end = time.perf_counter()
        self._local.stack.pop()
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD] += end - span[START]

    def start_op(self, op_id: int) -> list:
        """Open the root span of one benchmark operation on this thread."""
        self._thread().op = op_id
        return self.begin("op")

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Record a span named *name* around every call of ``cls.attr``."""
        self._set(cls, attr, self._span_wrapper(name, cls.__dict__[attr]))

    def wrap_function(self, fn: Callable, name: str) -> None:
        """Record a span around *fn* at every ``repro`` module binding it."""
        traced = self._span_wrapper(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def count_calls(self, cls: type, attr: str, name: str) -> None:
        """Count calls of ``cls.attr``."""
        fn = cls.__dict__[attr]
        count = self.count

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            count(name)
            return fn(*args, **kwargs)

        self._set(cls, attr, counted)

    def count_batches(self, cls: type, attr: str, name: str) -> None:
        """Count the rows a batch generator method yields."""
        fn = cls.__dict__[attr]
        count = self.count

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Iterator[Any]:
            for batch in fn(*args, **kwargs):
                count(name, len(batch))
                yield batch

        self._set(cls, attr, counted)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        spans = self.spans()
        ids = {id(span): index for index, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(spans):
                parent = span[PARENT]
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": round(span[START], 7),
                            "end": round(span[END], 7),
                            "parent": None if parent is None else ids.get(id(parent)),
                            "op": span[OP],
                        }
                    )
                )
                out.write("\n")
        return len(spans)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
