"""In-memory span recording around the layers' public entry points.

The benchmark's traced run wraps each layer's entry point *at the name
its callers bind* (a class attribute, or a module global in the calling
module), records one span per call, and restores the originals when it
is done.  Nothing inside ``src/`` changes.

A span is (name, parent, start, end) on one thread.  Each thread appends
to its own buffers, so parent links are indices into that thread's
buffer and need no lock.  A layer's self time is its span's duration
minus the duration of its direct children, which on one thread nest
strictly inside it.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


class SpanRecorder:
    """Per-thread span buffers plus the patch table that feeds them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[Tuple[array, array, array, array, list]] = []
        self._buffers_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        """The small integer recorded for span ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            buf = (array("h"), array("i"), array("d"), array("d"), [])
            self._local.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
            return buf

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span named ``name`` recorded per call."""
        nid = self.name_id(name)
        clock = time.perf_counter
        get_buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, parents, starts, ends, stack = get_buffer()
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with its traced wrapper."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        """All spans as flat arrays (thread-major, call order within)."""
        with self._buffers_lock:
            buffers = list(self._buffers)
        name_parts, parent_parts, start_parts, end_parts, threads = (
            [], [], [], [], []
        )
        offset = 0
        for thread_index, (names, parents, starts, ends, _) in enumerate(
            buffers
        ):
            count = len(starts)
            parent = np.frombuffer(parents, dtype=np.int32)[:count]
            name_parts.append(np.frombuffer(names, dtype=np.int16)[:count])
            parent_parts.append(
                np.where(parent >= 0, parent + offset, -1)
            )
            start_parts.append(np.frombuffer(starts, dtype=np.float64))
            end_parts.append(np.frombuffer(ends, dtype=np.float64))
            threads.append(np.full(count, thread_index, dtype=np.int16))
            offset += count

        def join(parts, dtype):
            return (
                np.concatenate(parts) if parts else np.zeros(0, dtype)
            )

        return {
            "name": join(name_parts, np.int16),
            "parent": join(parent_parts, np.int64),
            "start": join(start_parts, np.float64),
            "end": join(end_parts, np.float64),
            "thread": join(threads, np.int16),
        }

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, summed self seconds)}``."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        self_time = duration - child_time
        names = spans["name"].astype(np.int64)
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(
            names, weights=self_time, minlength=len(self.names)
        )
        return {
            name: (int(calls[i]), float(self_sum[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path, names=np.array(self.names), **self.arrays()
        )


def sum_self(
    summary: Dict[str, Tuple[int, float]], names: Sequence[str]
) -> Tuple[int, float]:
    """Total calls and self seconds over several span names."""
    calls = sum(summary.get(name, (0, 0.0))[0] for name in names)
    seconds = sum(summary.get(name, (0, 0.0))[1] for name in names)
    return calls, seconds
