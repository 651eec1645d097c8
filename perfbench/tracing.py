"""Span and count wrappers for the traced run, installed from outside.

The program is not modified.  Each boundary below is a module-level name that
the code on the workload paths looks up at call time; the wrapper replaces the
name *in the module that looks it up* (for example `fidelity_oracle` is
imported into `reduction`, so it is wrapped there).  A boundary whose name no
longer exists is recorded as missing, and every metric derived from it is
reported as missing rather than as zero.

Spans are kept in memory as [name, start, end, parent, size, raised] and
reduced to additive totals when the repetition ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, kind, span or counter name)
BOUNDARIES = (
    ("dstfid.cli", "main", "span", "cli.main"),
    ("dstfid.cli", "fidelity", "span", "reduction.fidelity"),
    ("dstfid", "fidelity", "span", "reduction.fidelity"),
    ("dstfid.reduction", "base_factor", "span", "reduction.base_factor"),
    ("dstfid.reduction", "fidelity_oracle", "span", "fock.fidelity_oracle"),
    ("dstfid.fock", "fidelity_oracle", "span", "fock.fidelity_oracle"),
    ("dstfid.fock", "dst_state", "span", "fock.dst_state"),
    ("dstfid.fock", "matrix_exp", "span", "fock.matrix_exp"),
    ("dstfid.reduction", "logsumexp", "count", "reduction.logsumexp"),
    ("dstfid.reduction", "squeeze_matrix", "count", "algebra.conjugation_build"),
    ("dstfid.reduction", "thermal_matrix", "count", "algebra.conjugation_build"),
)

BANDS = ("n_le_100", "n_101_200", "n_gt_200")

NAME, START, END, PARENT, SIZE, RAISED = range(6)


def band(cutoff: int) -> str:
    if cutoff <= 100:
        return BANDS[0]
    if cutoff <= 200:
        return BANDS[1]
    return BANDS[2]


def _size(name: str, args, kwargs) -> int | None:
    """Fock dimension of a dst_state or matrix_exp call."""
    if name == "fock.dst_state":
        return int(kwargs["cutoff"] if "cutoff" in kwargs else args[1])
    if name == "fock.matrix_exp":
        return len(kwargs["m"] if "m" in kwargs else args[0])
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, kind, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr)
            wrapped = self._span(name, fn) if kind == "span" else self._count(name, fn)
            setattr(module, attr, wrapped)

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, _size(name, args, kwargs), False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict:
        """Additive per-layer totals (seconds, counts) for this repetition."""
        spans = self.spans
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            children.setdefault(s[PARENT], []).append(i)

        def dur(i: int) -> float:
            return spans[i][END] - spans[i][START]

        def self_time(i: int) -> float:
            return dur(i) - sum(dur(c) for c in children.get(i, ()))

        t = {
            "cli_self_s": 0.0,
            "closed_form_self_s": 0.0,
            "base_factor_calls": 0,
            "base_factor_s": 0.0,
            "base_oracle_calls": 0,
            "oracle_calls": 0,
            "oracle_s": 0.0,
            "oracle_failures": 0,
            "final_cutoffs": [],
            "dense_work_n3": 0,
            "logsumexp_calls": self.counts["reduction.logsumexp"],
            "conjugation_builds": self.counts["algebra.conjugation_build"],
        }
        for key in ("rungs", "expm_s", "state_build_s", "uhlmann_s"):
            t[key] = dict.fromkeys(BANDS, 0)
        for i, s in enumerate(spans):
            name = s[NAME]
            if name == "cli.main":
                t["cli_self_s"] += self_time(i)
            elif name == "reduction.fidelity":
                t["closed_form_self_s"] += self_time(i)
            elif name == "reduction.base_factor":
                t["base_factor_calls"] += 1
                t["base_factor_s"] += dur(i)
            elif name == "fock.fidelity_oracle":
                self._oracle(i, children.get(i, []), t)
            elif name == "fock.dst_state":
                t["dense_work_n3"] += s[SIZE] ** 3
                t["state_build_s"][band(s[SIZE])] += self_time(i)
            elif name == "fock.matrix_exp":
                t["expm_s"][band(s[SIZE])] += dur(i)
        return t

    def _oracle(self, i: int, kids: list[int], t: dict) -> None:
        """One oracle span: its rungs (pairs of dst_state children) and the
        self time between them, which is the Uhlmann step of the rung that
        precedes it."""
        spans = self.spans
        span = spans[i]
        t["oracle_calls"] += 1
        t["oracle_s"] += span[END] - span[START]
        t["oracle_failures"] += int(span[RAISED])
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == "reduction.base_factor":
            t["base_oracle_calls"] += 1
        builds = [c for c in kids if spans[c][NAME] == "fock.dst_state"]
        if not builds:
            return
        rung_cutoffs = [spans[c][SIZE] for c in builds[::2]]
        for n in rung_cutoffs:
            t["rungs"][band(n)] += 1
        if not span[RAISED]:
            t["final_cutoffs"].append(rung_cutoffs[-1])
        cursor, rung = span[START], 0
        for pos, c in enumerate(builds):
            t["uhlmann_s"][band(rung_cutoffs[rung])] += spans[c][START] - cursor
            cursor, rung = spans[c][END], pos // 2
        t["uhlmann_s"][band(rung_cutoffs[rung])] += span[END] - cursor
