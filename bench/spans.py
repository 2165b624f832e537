"""Process-local tracing for the benchmark's traced pass.

The tracer wraps the public functions of each alglab module from the
outside, so the program's sources stay untouched.  Modules import one
another's functions by name (``from .algebra import product``), so each
wrapper is bound in every ``alglab.*`` namespace that holds the original
function, not only in the defining module.

Every call becomes a span with a parent link.  A layer's self time is the
span's duration minus the time its child spans cover; inclusive time counts
only the outermost activation of a recursive function.  Spans stay in
memory (up to SPAN_CAP; the aggregates are exact beyond it) and are written
out when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# modular and errors are too small to be layers
LAYERS = (
    "linalg", "algebra", "grading", "series", "frobenius",
    "rdep", "rewrite", "formats", "search", "verify",
)
CLI_SPAN = "cli.main"  # recorded by the benchmark around each CLI invocation
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # open frames: [key, start, child_s, span_id]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.open_count: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.counts: Counter = Counter()  # outcome counts taken from results
        self.verify_frames: list[list[int]] = []  # [identity, grading] per open verify call
        self.keys: list[str] = [CLI_SPAN]
        self._patched: list[tuple] = []
        self._next_id = 0

    # -- installing -------------------------------------------------------

    def install(self):
        """Bind a wrapper for every public function of every layer module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "alglab" or name.startswith("alglab."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"alglab.{layer}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                self.keys.append(key)
                wrapped = self._wrap(key, layer, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._patched.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _wrap(self, key, layer, fn):
        enter, leave = self._enter, self._leave
        on_result = _RESULT_HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(key, layer)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    @contextmanager
    def span(self, key: str):
        """A span recorded by the benchmark around one of its own calls."""
        self._enter(key)
        try:
            yield
        finally:
            self._leave(key, key.split(".")[0])

    # -- recording --------------------------------------------------------

    def _enter(self, key):
        sid = self._next_id
        self._next_id += 1
        self.calls[key] += 1
        self.open_count[key] += 1
        if key == "verify.verify":
            self.verify_frames.append([0, 0])
        elif self.verify_frames:
            if key == "algebra.check_identity_uniform":
                self.verify_frames[-1][0] += 1
            elif key == "grading.check_grading":
                self.verify_frames[-1][1] += 1
        self.stack.append([key, perf_counter(), 0.0, sid])

    def _leave(self, key, layer):
        end = perf_counter()
        _, start, child_s, sid = self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        self.open_count[key] -= 1
        if not self.open_count[key]:
            self.inclusive[key] += duration
        if key == "verify.verify":
            identity, grading = self.verify_frames.pop()
            self.counts["verify.files"] += 1
            self.counts["verify.identity_checks"] += identity
            self.counts["verify.files_with_identity"] += identity > 0
            self.counts["verify.grading_checks"] += grading
            self.counts["verify.files_with_grading"] += grading > 0
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, key, start, end))
        else:
            self.dropped += 1

    # -- reporting --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can give, zero where unused."""
        out: dict[str, float] = {}
        for key in self.keys:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.s"] = self.inclusive[key]
        for layer in LAYERS + ("cli",):
            out[f"{layer}.self_s"] = self.self_s[layer]
        c = self.counts
        out["search.candidates"] = c["search.candidates"]
        out["search.survivor_ratio"] = _ratio(c["search.survivors"], c["search.candidates"])
        out["rewrite.words_per_term"] = _ratio(c["rewrite.words"], self.calls["rewrite.normalize"])
        out["verify.identity_per_file"] = _ratio(
            c["verify.identity_checks"], c["verify.files_with_identity"])
        out["verify.grading_per_file"] = _ratio(
            c["verify.grading_checks"], c["verify.files_with_grading"])
        return out

    def write_spans(self, path):
        names = {key: i for i, key in enumerate(self.keys)}
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.keys, "dropped": self.dropped,
                                 "fields": ["id", "parent", "name", "start_s", "end_s"]}) + "\n")
            for sid, parent, key, start, end in self.spans:
                fh.write(f"[{sid},{parent},{names[key]},{start - origin:.7f},{end - origin:.7f}]\n")


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the layer did no work at all (den == 0)."""
    return num / den if den else 0.0


def _count_search(counts, result):
    counts["search.candidates"] += result.candidates
    counts["search.survivors"] += len(result.survivors)


def _count_words(counts, result):
    counts["rewrite.words"] += len(result)


_RESULT_HOOKS = {"search.search": _count_search, "rewrite.normalize": _count_words}
