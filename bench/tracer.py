"""Spans around the public boundary functions of each ucsets layer.

The tracer rebinds the functions named in BOUNDARIES in every loaded
``ucsets.*`` module namespace that holds them (modules import each other's
functions by name, so patching the defining module alone would miss most
calls) and restores every binding on exit.  No source file is edited.

Spans are kept in memory as parallel arrays (name id, start, end, parent
id) and can be written out once the run ends.  A layer's self time is the
time its spans cover minus the time covered by their child spans.

Hot helpers called 10^5 times per run (``elements_of``, ``relabel_mask``,
``witnesses._top_element``) are deliberately left unwrapped: their cost is
charged to the boundary function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

# module -> function -> layer group.  The group names are the per-layer
# metric prefixes reported by run.py.
BOUNDARIES: dict[str, dict[str, str]] = {
    "ucsets.family": {
        "find_union_gap": "family.union_check",
        "is_union_closed": "family.union_check",
        "element_frequencies": "family.frequencies",
        "frequency_profile": "family.frequencies",
        "frankl_witnesses": "family.frequencies",
        "column_signatures": "family.separation",
        "is_separating": "family.separation",
        "find_unseparated_pair": "family.separation",
        "separating_quotient": "family.separation",
        "closure_of_masks": "family.closure",
        "union_closure": "family.closure",
    },
    "ucsets.witnesses": {
        "falgas_ravry_chain": "witnesses.chain",
        "m_sets": "witnesses.chain",
        "verify_chain_witness": "witnesses.chain",
        "minimal_transversal": "witnesses.transversal",
        "max_index_elements": "witnesses.transversal",
        "a_sets": "witnesses.transversal",
        "verify_transversal": "witnesses.transversal",
        "counting_audit": "witnesses.audit",
    },
    "ucsets.bounds": {
        "applicability": "bounds.applicability",
        "lemma_bound": "bounds.applicability",
        "bound_report": "bounds.applicability",
    },
    "ucsets.search": {
        "enumerate_union_closed": "search.generate",
        "random_family": "search.generate",
        "corpus_verify": "search.corpus_verify",
    },
    "ucsets.formats": {
        "family_from_json_dict": "formats.parse",
        "parse_members_text": "formats.parse",
        "family_to_json_dict": "formats.serialize",
        "to_json": "formats.serialize",
        "corpus_to_json": "formats.serialize",
    },
    "ucsets.cli": {
        "cmd_enumerate": "cli",
        "cmd_random": "cli",
        "cmd_verify": "cli",
    },
}

NO_PARENT = -1


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.groups: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [NO_PARENT]
        self._wrappers: dict[int, tuple[Any, Any]] = {}  # id(original) -> pair
        self._rebound: list[tuple[Any, str, Any]] = []
        # Counters taken at the boundaries, reset by reset().
        self.union_pairs = 0
        self.bytes_serialized = 0
        self.family_seconds: list[float] = []

    def reset(self) -> None:
        """Drop recorded spans and counters; bindings stay installed."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.union_pairs = 0
        self.bytes_serialized = 0
        self.family_seconds = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for mod_name, funcs in BOUNDARIES.items():
                module = importlib.import_module(mod_name)
                for func_name, group in funcs.items():
                    original = getattr(module, func_name)
                    self._wrappers[id(original)] = (original, self._wrap(
                        original, f"{mod_name[len('ucsets.'):]}.{func_name}", group))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ucsets" and not mod_name.startswith("ucsets."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    @property
    def rebound(self) -> list[tuple[str, str]]:
        return [(m.__name__, attr) for m, attr, _ in self._rebound]

    # -- spans ----------------------------------------------------------

    def _name_id(self, name: str, group: str) -> int:
        self.names.append(name)
        self.groups.append(group)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable[..., Any], name: str, group: str) -> Callable[..., Any]:
        nid = self._name_id(name, group)
        short = name.rsplit(".", 1)[1]
        if short == "enumerate_union_closed":
            next_nid = self._name_id(name + ".next", group)

            @functools.wraps(fn)
            def enumerate_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                sid = self._open(nid)
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    self._close(sid)
                return self._spanned_iter(inner, next_nid)
            return enumerate_wrapper

        if short == "corpus_verify":
            @functools.wraps(fn)
            def verify_wrapper(corpus: Iterable[Any], *args: Any, **kwargs: Any) -> Any:
                sid = self._open(nid)
                try:
                    return fn(self._timed_families(corpus), *args, **kwargs)
                finally:
                    self._close(sid)
            return verify_wrapper

        if short == "find_union_gap":
            @functools.wraps(fn)
            def gap_wrapper(f: Any, *args: Any, **kwargs: Any) -> Any:
                # Computed, not counted: every pair is scanned when the
                # family is union-closed, which is the case on all workloads.
                self.union_pairs += f.n * (f.n - 1) // 2
                sid = self._open(nid)
                try:
                    return fn(f, *args, **kwargs)
                finally:
                    self._close(sid)
            return gap_wrapper

        if short == "to_json":
            @functools.wraps(fn)
            def json_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = self._open(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(sid)
                self.bytes_serialized += len(out.encode("utf-8"))
                return out
            return json_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    def _spanned_iter(self, inner: Iterator[Any], nid: int) -> Iterator[Any]:
        """Charge the work done inside each next() of a generator to a span."""
        while True:
            sid = self._open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(sid)
            yield item

    def _timed_families(self, corpus: Iterable[Any]) -> Iterator[Any]:
        """Per-family latency: from handing a family over to the next request."""
        for fam in corpus:
            t0 = perf_counter()
            yield fam
            self.family_seconds.append(perf_counter() - t0)

    # -- analysis -----------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Self time per group and call count per span name, split by root.

        The root of a span is the outermost span above it (a cli command),
        so counts can be attributed to the corpus-producing command or to
        verify.
        """
        n = len(self.span_start)
        start, end, parent, name = self.span_start, self.span_end, self.span_parent, self.span_name
        child_time = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = parent[i]
            if p == NO_PARENT:
                root[i] = i
            else:
                root[i] = root[p]
                child_time[p] += end[i] - start[i]
        self_s: dict[str, float] = {}
        calls: dict[tuple[str, str], int] = {}
        for i in range(n):
            nid = name[i]
            group = self.groups[nid]
            self_s[group] = self_s.get(group, 0.0) + (end[i] - start[i]) - child_time[i]
            key = (self.names[name[root[i]]], self.names[nid])
            calls[key] = calls.get(key, 0) + 1
        return {"self_s": self_s, "calls": calls, "spans": n}

    def write_spans(self, path: str) -> None:
        """One JSON document: the name table and [name, start, end, parent] rows."""
        rows = [[self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
                for i in range(len(self.span_start))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "groups": self.groups, "spans": rows}, fh,
                      separators=(",", ":"))
