"""Corpus generation: exhaustive enumeration, canonical forms, seeded random families.

Both enumeration modes run one extension search over the power set of an
m-element ambient universe (m <= 4): it decides the masks from the top down
and adds x to a union-closed F only when each union x | a with a in F is x
itself or already in F, so it visits only union-closed families.  Generator
mode keeps those with at most g join-irreducible members, one per class.
Yielded families are compressed to the elements they actually cover, which
is what the downstream analyses expect.  Everything is deterministic:
streams come in a fixed order and the random generator is a fixed integer
recipe, so corpora are bit-identical across runs and platforms.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import BinaryIO, Iterable, Iterator

from .bounds import _coverage_alarm, bound_report
from .errors import CapacityError, DomainError
from .family import (
    MAX_UNIVERSE,
    SetFamily,
    closure_of_masks,
    drop_unused_elements,
    elements_of,
    family_label,
    find_union_gap,
    frankl_witnesses,
    is_separating,
    join_irreducibles,
    relabel_mask,
    separating_quotient,
    set_label,
)
from .witnesses import (
    counting_audit,
    falgas_ravry_chain,
    minimal_transversal,
    verify_chain_witness,
    verify_transversal,
)

EXHAUSTIVE_LIMIT = 4
CANONICAL_LIMIT = 8

FILTERS = ("all", "validated", "separating")


def _passes(fam: SetFamily, m: int, family_filter: str) -> bool:
    """Filter a compressed family; it covered the ambient universe exactly
    when compression kept all m elements."""
    if family_filter == "all":
        return True
    if family_filter == "validated":
        return fam.universe_size == m
    return is_separating(fam)


def enumerate_union_closed(m: int, mode: str = "exhaustive", *,
                           family_filter: str = "separating",
                           max_generators: int | None = None,
                           ) -> Iterator[SetFamily]:
    """Stream union-closed families over an m-element ambient universe (m <= 4).

    Exhaustive mode yields every union-closed subfamily of the power set,
    the empty family included, in increasing subfamily-code order (the code
    of a family sets bit x for each member mask x).  Generator mode keeps
    the families of that stream with at most max_generators join-irreducible
    members (all of them when None), that is the union closures of at most
    max_generators masks, and yields the canonical form of each in order of
    first appearance, once per isomorphism class.  Capacity, and that
    max_generators is only given in generator mode, are checked at the
    call, before any family is built.

    family_filter: "all" keeps every union-closed subfamily, "validated"
    only those covering the full ambient universe, and "separating" (the
    default, and the corpus of interest) those whose covered elements have
    pairwise distinct membership columns.  Yielded families are compressed
    to their covered elements.
    """
    if family_filter not in FILTERS:
        raise DomainError(f"unknown filter {family_filter!r}; expected one of {FILTERS}")
    if mode not in ("exhaustive", "generators"):
        raise DomainError(f"unknown mode {mode!r}; expected exhaustive or generators")
    if mode == "exhaustive" and max_generators is not None:
        raise DomainError("max_generators applies to generator mode only")
    if m < 0:
        raise DomainError(f"m must be at least 0, got {m}")
    if m > EXHAUSTIVE_LIMIT:
        raise CapacityError(f"{mode} enumeration supports m <= {EXHAUSTIVE_LIMIT}, got {m}")
    stream = _enumerate_exhaustive(m, family_filter)
    return stream if mode == "exhaustive" else _generated_classes(stream, max_generators)


def _enumerate_exhaustive(m: int, family_filter: str) -> Iterator[SetFamily]:
    def extend(x: int, chosen: tuple[int, ...], code: int) -> Iterator[SetFamily]:
        # Masks above x are decided; chosen is union-closed and ascending.
        if x < 0:
            fam, _ = drop_unused_elements(SetFamily(m, chosen))
            if _passes(fam, m, family_filter):
                yield fam
            return
        yield from extend(x - 1, chosen, code)
        code |= 1 << x
        if all(code >> (x | a) & 1 for a in chosen):
            yield from extend(x - 1, (x,) + chosen, code)
    return extend((1 << m) - 1, (), 0)


def _generated_classes(stream: Iterable[SetFamily], max_generators: int | None,
                       ) -> Iterator[SetFamily]:
    """Each new class's canonical form; every labeling of it is then marked
    seen, so the m! scan runs once per class, not once per family."""
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for fam in stream:
        m = fam.universe_size
        if (m, fam.members) in seen:
            continue
        if max_generators is not None and len(join_irreducibles(fam)) > max_generators:
            continue
        labelings = list(_relabelings(fam))
        seen.update((m, members) for members in labelings)
        yield SetFamily(m, min(labelings))


def _relabelings(f: SetFamily) -> Iterator[tuple[int, ...]]:
    """The sorted members of f under each of the m! element permutations."""
    m = f.universe_size
    if m > CANONICAL_LIMIT:
        raise CapacityError(
            f"canonical form scans m! relabelings; m <= {CANONICAL_LIMIT}, got {m}")
    for perm in itertools.permutations(range(m)):
        yield tuple(sorted(relabel_mask(mask, perm) for mask in f.members))


def canonical_form(f: SetFamily) -> SetFamily:
    """Lexicographically smallest relabeling of the family (m <= 8).

    Scans all m! element permutations, so two families have equal canonical
    forms exactly when some relabeling carries one onto the other.
    """
    return SetFamily(f.universe_size, min(_relabelings(f)))


MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """Deterministic 64-bit stream (splitmix64, a public-domain mixer).

    state += 0x9E3779B97F4A7C15; then the output is state mixed by two
    xor-shift-multiply rounds (constants 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB) and a final 31-bit xor-shift.  Pure integer
    arithmetic, hence identical on every platform.
    """
    x = seed & MASK64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def random_family(m: int, generators: int, seed: int) -> SetFamily:
    """Seeded random validated separating union-closed family.

    Draws `generators` non-empty subsets of an m-element universe from the
    splitmix64 stream (each draw takes the low m bits of the next output,
    redrawing zero; drawing stops early once the closure holds all 2^m - 1
    of them), closes them under union, and takes the separating
    quotient, which drops unused elements and collapses duplicate
    membership columns.  The same (m, generators, seed) triple yields a
    bit-identical family everywhere.
    """
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    if m > MAX_UNIVERSE:
        raise CapacityError(f"m must be in 1..{MAX_UNIVERSE}, got {m}")
    if generators < 0:
        raise DomainError(f"generators must be non-negative, got {generators}")
    full = (1 << m) - 1
    nonzero = filter(None, (v & full for v in splitmix64(seed)))
    # Drawn lazily, so memory is the closure's whatever the count.
    drawn = (next(nonzero) for _ in range(generators))
    quotient, _ = separating_quotient(SetFamily(m, tuple(closure_of_masks(drawn, full))))
    return quotient


@dataclass
class CorpusReport:
    """Tallies and failure lists from a verification sweep over families."""

    total_families: int = 0
    union_closed_count: int = 0
    separating_count: int = 0
    frankl_violations: list[str] = field(default_factory=list)
    invariant_failures: list[tuple[str, str]] = field(default_factory=list)
    audit_failures: list[tuple[str, str]] = field(default_factory=list)
    rejections: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.frankl_violations or self.invariant_failures
                    or self.audit_failures or self.rejections)

    def merge(self, later: CorpusReport) -> None:
        """Add the tallies and failures of the families that came after."""
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            value += getattr(later, name)  # counts add, failure lists extend
            setattr(self, name, value)


# A batch closes once its families hold this many members, counting n + 1
# per family, so a batch of tiny families still amortises its fork.
BATCH_MEMBERS = 4096


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


def corpus_verify(corpus: Iterable[SetFamily]) -> CorpusReport:
    """Run the full verification battery over a corpus of families.

    Families must be validated and union-closed; offenders are rejected
    with a precise reason and skipped.  Union-closed but non-separating
    families are only tallied.  For each separating family the battery
    checks the witness set (skipped for families with an empty universe,
    where there is no element to find), chain and transversal invariants,
    the counting audit bullets and inequality, the n <= 2m mechanism, and
    the coverage cross-check.  Failures are data, not exceptions.

    The corpus is cut into batches of about BATCH_MEMBERS members, and each
    batch is verified in a forked child process, at most one per CPU at a
    time; the parent merges the partial reports in corpus order, so the
    report is the one a serial sweep gives.  The parent fills the threshold
    calculus for each universe size before it forks a batch holding it, so
    the children inherit it.  With one CPU, without
    os.fork, while other threads run, or when the corpus fits in one batch,
    the sweep runs in this process.  Exceptions are raised as a serial
    sweep raises them: the first one in corpus order wins, whether the
    battery raised it in a child or the corpus raised it here.  No child
    outlives the call.
    """
    workers = _worker_count()
    # A forked child has only the forking thread, and a lock another thread
    # held stays held in the child, so a process with threads forks none.
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _verify_batch(corpus)
    rep = CorpusReport()
    running: deque[tuple[int, BinaryIO]] = deque()
    batch: list[SetFamily] = []
    size = 0
    error: Exception | None = None
    families = iter(corpus)
    sizes: set[int] = set()
    try:
        while True:
            try:
                f = next(families)
            except StopIteration:
                break
            except Exception as exc:  # raised once the families before it are verified
                error = exc
                break
            if f.universe_size not in sizes:  # forked children inherit its calculus
                sizes.add(f.universe_size)
                bound_report(f.universe_size)
            batch.append(f)
            size += f.n + 1
            if size >= BATCH_MEMBERS:
                if len(running) == workers:
                    rep.merge(_collect(running))
                running.append(_fork(batch))
                batch, size = [], 0
        try:
            tail = _verify_batch(batch)
        except Exception as exc:  # its families precede the corpus's error
            tail, error = CorpusReport(), exc
        while running:
            rep.merge(_collect(running))
        if error is not None:
            raise error
        rep.merge(tail)
        return rep
    finally:
        _reap(running)


def _fork(batch: list[SetFamily]) -> tuple[int, BinaryIO]:
    """Verify the batch in a child that sends back one pickled outcome:
    (True, report) or (False, exception)."""
    import pickle

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            try:
                outcome: tuple[bool, object] = (True, _verify_batch(batch))
            except Exception as exc:
                outcome = (False, exc)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            # Leave without unwinding into the parent's code or flushing
            # its buffered files, which the child holds copies of.
            os._exit(status)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _collect(running: deque[tuple[int, BinaryIO]]) -> CorpusReport:
    """Wait for the oldest child and return its report, or raise what it
    raised."""
    import pickle

    pid, pipe = running[0]
    with pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    running.popleft()
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise OSError(f"verify worker process {pid} {how} before sending its report")
    ok, value = pickle.loads(data)  # bytes our own child wrote
    if not ok:
        raise value
    return value


def _reap(running: deque[tuple[int, BinaryIO]]) -> None:
    """Kill and wait for the children still running."""
    for pid, pipe in running:
        pipe.close()
        try:
            # Signal only a child still running: a pid already waited for
            # may belong to another process by now.
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    running.clear()


def _verify_batch(families: Iterable[SetFamily]) -> CorpusReport:
    """The battery over families, in this process.  Labels are rendered
    only for the families that get reported: rendering a large family costs
    more than checking it."""
    rep = CorpusReport()
    for f in families:
        rep.total_families += 1
        if not f.covers_universe:
            missing = elements_of(f.universe_mask & ~f.covered_mask)
            rep.rejections.append((family_label(f),
                                   f"not validated: element ids {missing} occur in no member"))
            continue
        gap = find_union_gap(f)
        if gap is not None:
            rep.rejections.append((family_label(f),
                                   f"not union-closed: the union of {set_label(gap[0])} "
                                   f"and {set_label(gap[1])} is missing"))
            continue
        rep.union_closed_count += 1
        if not is_separating(f):
            continue
        rep.separating_count += 1

        if f.n >= 1 and f.universe_size >= 1 and not frankl_witnesses(f):
            rep.frankl_violations.append(family_label(f))

        if f.n >= 1:
            w = falgas_ravry_chain(f)
            for issue in verify_chain_witness(f, w):
                rep.invariant_failures.append((family_label(f), "chain: " + issue))

        tr = minimal_transversal(f)
        for issue in verify_transversal(f, tr):
            rep.invariant_failures.append((family_label(f), "transversal: " + issue))

        audit = counting_audit(f, tr)
        for name, passed in audit.bullets_ok.items():
            if not passed:
                rep.audit_failures.append((family_label(f), name))
        if not audit.inequality_holds:
            rep.audit_failures.append((family_label(f), "inequality"))

        if 1 <= f.n <= 2 * f.universe_size:
            if 2 * f.freq[f.order[-1]] < f.n:
                rep.invariant_failures.append((
                    family_label(f),
                    "lemma: top element below half frequency despite n <= 2m"))

        alarm = _coverage_alarm(f)
        if alarm:
            rep.invariant_failures.append((family_label(f), "applicability: " + alarm))
    return rep
