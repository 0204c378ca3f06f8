"""In-memory span tracer that wraps ``diffnet`` functions from outside.

``from module import name`` binds a function once per importing module, so a
wrapper has to replace every module attribute that refers to the original,
not just the attribute in the defining module.  Spans (name, parent, start,
end) are appended to flat arrays and only aggregated when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs; the span name is "module.function"
TARGETS = (
    ("datamodel", "sample_snapshot"),
    ("datamodel", "sample_link_noise"),
    ("diffusion", "adaptive_step"),
    ("diffusion", "consensus_lms_step"),
    ("diffusion", "smoothing_step"),
    ("diffusion", "simulate_trial"),
    ("diffusion", "run_trials"),
    ("combiners", "adapt_weights_all"),
    ("analysis", "build_moments"),
    ("analysis", "variance_constructs"),
    ("analysis", "imperfect_constructs"),
    ("analysis", "performance_report"),
    ("analysis", "mean_stability"),
    ("analysis", "learning_curve_theory"),
    ("rls", "drls_step"),
    ("rls", "crls_step"),
    ("kalman", "dkf_tm_step"),
    ("kalman", "ckf_step"),
    ("kalman", "centralized_kf_step"),
    ("kalman", "simulate_state_trajectory"),
    ("cli", "main"),
    ("cli", "build_topology_spec"),
    ("cli", "build_model_spec"),
    ("cli", "build_strategy"),
)


def _copy(values: array) -> np.ndarray:
    # a copy, so that no buffer export pins the array while spans are appended
    return np.frombuffer(values, dtype=np.int32 if values.typecode == "i" else float).copy()


class Tracer:
    """Records one span per call of every target while installed.

    Create it after ``diffnet`` is imported: it looks the targets up in
    ``sys.modules``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for key, m in sys.modules.items() if key == "diffnet" or key.startswith("diffnet.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"diffnet.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        count_method = name == "analysis.performance_report"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count_method:
                key = f"{name}.{result.method}"
                self.counts[key] = self.counts.get(key, 0) + 1
            return result

        return traced

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def mark(self) -> int:
        """Index of the next span, to delimit the spans of one pass."""
        return len(self.start)

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over every span.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap their siblings (one thread).
        """
        ids, parent = _copy(self.name_id), _copy(self.parent)
        dur = _copy(self.end) - _copy(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_time = np.bincount(ids, weights=dur - child, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_time[i]))
            for i, name in enumerate(self.names)
        }

    def dump(self, path, begin: int, end: int):
        """Write spans [begin, end) with times relative to the first one."""
        start = _copy(self.start)[begin:end]
        t0 = start[0] if start.size else 0.0
        parent = _copy(self.parent)[begin:end]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=_copy(self.name_id)[begin:end],
            parent=np.where(parent >= begin, parent - begin, -1),
            start=start - t0,
            end=_copy(self.end)[begin:end] - t0,
        )
