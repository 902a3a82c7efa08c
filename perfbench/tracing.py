"""In-memory span tracing of cycleweights' public functions, from outside.

`patched` swaps a named function of the package for a wrapper in every
cycleweights module that binds it (so calls between modules are caught
too) and puts the originals back on exit.  `Tracer` is one such wrapper
factory: it records one span (name, start, end, parent) per call, adds
the counts that can be read off a call's result, and reduces the spans
to each layer's self time: the span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

# traced function -> per-layer metric holding its self time
SPAN_METRICS = {
    "weights.g_theta_partial": "weights.g_theta_partial_s",
    "asymptotics.solve_saddle": "asymptotics.solve_saddle_s",
    "asymptotics.saddle_h_estimate": "asymptotics.saddle_h_estimate_s",
    "oracle.build_h_table": "oracle.build_h_table_s",
    "oracle.HTable.save": "oracle.htable_save_s",
    "oracle.HTable.load": "oracle.htable_load_s",
    "sampler.sample_batch": "sampler.sample_batch_s",
    "sampler.substream_rng": "sampler.substream_rng_s",
    "stats.verify_poisson_increments": "stats.verify_poisson_increments_s",
    "stats.verify_gumbel": "stats.verify_gumbel_s",
    "stats.cumulative_profile": "stats.cumulative_profile_s",
    "stats.bn_event_frequency": "stats.bn_event_frequency_s",
    "cli.run_command": "cli.self_s",
}

# counts read off a traced call: name -> f(args, result) -> (metric, value)
_RESULT_COUNTS = {
    "weights.g_theta_partial": lambda a, out: ("weights.g_terms", out[1]),
    "asymptotics.solve_saddle":
        lambda a, out: ("asymptotics.truncation_K", out.truncation_K),
    "oracle.HTable.save":
        lambda a, out: ("oracle.cache_bytes", os.path.getsize(a[1])),
}

SAMPLER_INIT = "sampler.CycleTypeSampler.__init__"

# every function `Tracer.wrap` handles
TRACED = list(SPAN_METRICS) + [SAMPLER_INIT]


def _resolve(name):
    """(owner, attribute, original function, is_classmethod) for a name."""
    parts = name.split(".")
    owner = importlib.import_module("cycleweights." + parts[0])
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    attr = parts[-1]
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        return owner, attr, raw.__func__, True
    return owner, attr, raw, False


@contextlib.contextmanager
def patched(wrap, names):
    """Replace each named function by wrap(name, fn) for the duration.

    A module-level function is replaced in every loaded cycleweights
    module that binds the same object; a method is replaced on its class.
    """
    undo = []
    try:
        for name in names:
            owner, attr, fn, is_cm = _resolve(name)
            new = wrap(name, fn)
            if inspect.isclass(owner):
                undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, classmethod(new) if is_cm else new)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "cycleweights"
                        or mod_name.startswith("cycleweights.")) \
                        and vars(mod).get(attr) is fn:
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


class Tracer:
    """Span recorder; pass `wrap` and `TRACED` to `patched`.

    Spans nest by call order on one thread.  A traced generator stays the
    innermost open span from its first to its last item, so it must be
    drained (e.g. by `list`) before another traced call is made.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.samplers = []
        self._stack = []
        self._seen = (0, 0)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        if name == SAMPLER_INIT:
            # keep the sampler objects so their own counters can be read
            @functools.wraps(fn)
            def init(obj, *a, **k):
                fn(obj, *a, **k)
                self.samplers.append(obj)
            return init

        count = _RESULT_COUNTS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen(*a, **k):
                self._open(name)
                try:
                    yield from fn(*a, **k)
                finally:
                    self._close()
            return gen

        @functools.wraps(fn)
        def call(*a, **k):
            self._open(name)
            try:
                out = fn(*a, **k)
            finally:
                self._close()
            if count is not None:
                metric, value = count(a, out)
                self.counts[metric] += value
            return out
        return call

    def take(self):
        """Self times and counts since the last take, then forget them."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[SPAN_METRICS[name]] += (end - start) - covered
        out.update(self.counts)
        seen = (sum(s.scanned for s in self.samplers),
                sum(s.incidents for s in self.samplers))
        out["sampler.scanned"] += seen[0] - self._seen[0]
        out["sampler.incidents"] += seen[1] - self._seen[1]
        self._seen = seen
        self.spans = []
        self.counts = Counter()
        return out
