"""Corpus generation: exhaustive enumeration, one family per class, seeded random families.

Both enumeration modes run one depth-first search over the power set of
an m-element ambient universe (m <= 4) whose state is the subfamily code
of the masks decided so far (bit x set for each member mask x).  It
decides the masks from the top down and adds x only when the code's
image under a -> x | a lies inside the code, which a few shifts and masks
of the code compute, so it visits only union-closed families.  At a leaf
the code's columns tell which elements are covered and which are split,
so only the families that pass the filter are built.  Generator mode
adds one test at the leaves, Read's orderly test, which keeps one leaf
per isomorphism class without remembering the classes it has seen, and
keeps it when it has at most g join-irreducible members.
Yielded families are compressed to the elements they actually cover,
which is what the downstream analyses expect.  Everything is
deterministic: streams come in a fixed order and the random generator is
a fixed integer recipe, so corpora are bit-identical across runs and
platforms.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import BinaryIO, Iterable, Iterator, Protocol

from .bounds import applicability
from .errors import CapacityError, DomainError
from .family import (
    MAX_UNIVERSE,
    SetFamily,
    _bit_columns,
    _grow_closure,
    closure_of_masks,
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

FILTERS = ("all", "validated", "separating")


def enumerate_union_closed(m: int, mode: str = "exhaustive", *,
                           family_filter: str = "separating",
                           max_generators: int | None = None,
                           ) -> Iterator[SetFamily]:
    """Stream union-closed families over an m-element ambient universe (m <= 4).

    Exhaustive mode yields every union-closed subfamily of the power set,
    the empty family included, in increasing subfamily-code order (the code
    of a family sets bit x for each member mask x).  A depth-first search
    over codes decides the masks from the top down, leaving each out before
    adding it, and adds mask x only when x | a is already a member for
    every chosen a; it tests that on the code at once, through one
    shift-and-mask step per element of x.  The filter is decided on the
    code too, so only the families it yields are built.  Generator mode
    keeps one leaf of that search per isomorphism class, by Read's orderly
    test: the one whose element frequencies do not increase with the id and
    whose code no relabeling that keeps them makes smaller, when it has at
    most max_generators join-irreducible members (all of them when None),
    that is when it is the union closure of at most max_generators masks.
    Capacity, and that max_generators is only given in generator mode and
    is not negative, are checked at the call, before any family is built.

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
    if max_generators is not None and max_generators < 0:
        raise DomainError(f"max_generators must be non-negative, got {max_generators}")
    if m < 0:
        raise DomainError(f"m must be at least 0, got {m}")
    if m > EXHAUSTIVE_LIMIT:
        raise CapacityError(f"{mode} enumeration supports m <= {EXHAUSTIVE_LIMIT}, got {m}")
    return _enumerate_exhaustive(m, family_filter, mode == "generators", max_generators)


def _enumerate_exhaustive(m: int, family_filter: str, classes: bool = False,
                          max_generators: int | None = None) -> Iterator[SetFamily]:
    full = (1 << m) - 1
    masks = range(full + 1)
    # cols[j] is the code of the masks that hold element j.  Adding j to
    # every mask of a code keeps the masks in cols[j] and moves the others
    # 2^j places up, so x | a over a code takes one such step per bit of x.
    cols = [sum(1 << x for x in masks if x >> j & 1) for j in range(m)]
    steps = [[(cols[j], 1 << j) for j in range(m) if x >> j & 1] for x in masks]
    # squeeze[c][x] is x with the elements outside c dropped and the others
    # renumbered in order, which keeps the order of the submasks of c.
    squeeze = [[sum(1 << i for i, j in enumerate(elements_of(c)) if x >> j & 1)
                for x in masks] for c in masks]
    tied = _tied_relabelings(m) if classes else None
    # On the stack, (x, code): the masks above x are decided, code is
    # union-closed.  Leaving x out is followed at once and adding it waits
    # on the stack, so the leaves come in increasing code order.
    stack = [(full, 0)]
    while stack:
        x, code = stack.pop()
        while x >= 0:
            image = code
            for col, shift in steps[x]:
                image = image & col | (image & ~col) << shift
            if not image & ~code:  # every x | a is already a member
                stack.append((x - 1, code | 1 << x))
            x -= 1
        # The code's own columns: the nonzero ones belong to the covered
        # elements, and two covered elements are split when theirs differ.
        covered = [c for col in cols if (c := code & col)]
        covers = len(covered) == m
        if family_filter == "validated" and not covers:
            continue
        if family_filter == "separating" and len(set(covered)) < len(covered):
            continue
        if tied is None or _orderly(code, cols, tied, max_generators):
            if covers:
                yield SetFamily(m, tuple(elements_of(code)))
            else:
                used = sum(1 << j for j, col in enumerate(cols) if code & col)
                # A tuple built from a list is allocated at its size; one
                # built from map is grown and then shrunk, which raised the
                # peak RSS of repeated enumerations.
                row = squeeze[used]
                yield SetFamily(used.bit_count(), tuple([row[x] for x in elements_of(code)]))


def _tied_relabelings(m: int) -> list[list[list[int]]]:
    """For each tie pattern of a non-increasing frequency vector (bit j set
    when elements j and j + 1 are tied), the mask maps of the permutations
    other than the identity that keep each element among those tied with it."""
    others = list(itertools.permutations(range(m)))[1:]  # the first is the identity
    tied = []
    for ties in range(1 << max(m - 1, 0)):
        run = [(~ties & (1 << i) - 1).bit_count() for i in range(m)]  # untied pairs before i
        tied.append([[relabel_mask(x, p) for x in range(1 << m)]
                     for p in others if all(run[i] == run[j] for i, j in enumerate(p))])
    return tied


def _orderly(code: int, cols: list[int], tied: list[list[list[int]]],
             max_generators: int | None) -> bool:
    """Whether the leaf is the one kept for its class, within the budget.

    The labelings of a class whose frequencies do not increase with the id
    share one frequency vector, and the permutations of tied elements carry
    each of them onto the others; only the least code among them passes.
    """
    freq = [(code & col).bit_count() for col in cols]
    if freq != sorted(freq, reverse=True):
        return False
    members = tuple(elements_of(code))
    ties = sum(1 << j for j in range(len(freq) - 1) if freq[j] == freq[j + 1])
    return (all(sum(1 << t[x] for x in members) >= code for t in tied[ties])
            and (max_generators is None
                 or len(join_irreducibles(SetFamily(len(cols), members))) <= max_generators))


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

    The quotient is decided from the draws that grew the closure, not from
    its members.  A member holds x exactly when one of its generators does,
    so two elements have the same column in the closure exactly when they
    lie in the same generators, and an element is covered exactly when a
    generator holds it; a draw already in the closure changes neither.
    When the generators' columns are non-zero and distinct, the closure is
    the family as it is.  Otherwise the generators are projected onto
    their classes and closed again: projection commutes with union, so
    that closure is the quotient, with the same ids and member order.
    """
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    if m > MAX_UNIVERSE:
        raise CapacityError(f"m must be in 1..{MAX_UNIVERSE}, got {m}")
    if generators < 0:
        raise DomainError(f"generators must be non-negative, got {generators}")
    full = (1 << m) - 1
    nonzero = filter(None, (v & full for v in splitmix64(seed)))
    # Drawn lazily, so memory is the closure's and that of the draws that
    # grew it, at most one per member, whatever the count.
    drawn = (next(nonzero) for _ in range(generators))
    closed, grew = _grow_closure(drawn, full)
    columns = _bit_columns(tuple(grew), m)
    if all(columns) and len(set(columns)) == m:
        return SetFamily(m, tuple(sorted(closed)))
    quotient, _ = separating_quotient(SetFamily(m, tuple(sorted(grew))))
    return SetFamily(quotient.universe_size, tuple(closure_of_masks(quotient.members)))


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


class Undecoded(Protocol):
    """A family still in its input form, such as an NDJSON corpus line.

    n is the member count it weighs toward its batch; decode() builds the
    family, or raises what reading it raises, in the process that verifies
    its batch.
    """

    @property
    def n(self) -> int: ...

    def decode(self) -> SetFamily: ...


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


def corpus_verify(corpus: Iterable[SetFamily | Undecoded]) -> CorpusReport:
    """Run the full verification battery over a corpus of families.

    Families must be validated and union-closed; offenders are rejected
    with a precise reason and skipped.  Union-closed but non-separating
    families are only tallied.  For each separating family the battery
    checks the witness set (skipped for families with an empty universe,
    where there is no element to find), chain and transversal invariants,
    the counting audit bullets and inequality, the n <= 2m mechanism, and
    the coverage cross-check.  Failures are data, not exceptions.

    A corpus entry may also be Undecoded, such as an NDJSON line the CLI
    read but did not decode: it weighs its n toward its batch, and the
    batch decodes it where it is verified, so forked children decode their
    own lines and a decoding error is raised in its place in corpus order.

    The corpus is cut into batches of about BATCH_MEMBERS members, and each
    batch runs the battery one stage at a time; a batch that raises runs
    again one family at a time to find its first exception (_verify_batch).
    Each full batch is verified in a forked child process, at most one per
    CPU at a time; the parent merges the partial reports in corpus order,
    so the report is the one a family-by-family sweep gives.  With one CPU,
    without os.fork or while other threads run, the batches are verified
    one after another in this process, so that it holds one batch at a
    time; the last, partial batch always runs here.  Exceptions are raised
    as a family-by-family sweep raises them: the first one in corpus order
    wins, whether a batch raised it, in a child or here, or the corpus
    raised it here.  No child outlives the call.
    """
    workers = _worker_count()
    # A forked child has only the forking thread, and a lock another thread
    # held stays held in the child, so a process with threads forks none.
    forks = workers >= 2 and hasattr(os, "fork") and threading.active_count() == 1
    rep = CorpusReport()
    running: deque[tuple[int, BinaryIO]] = deque()
    batch: list[SetFamily | Undecoded] = []
    size = 0
    error: Exception | None = None
    families = iter(corpus)
    try:
        while True:
            try:
                f = next(families)
            except StopIteration:
                break
            except Exception as exc:  # raised once the families before it are verified
                error = exc
                break
            batch.append(f)
            size += f.n + 1
            if size >= BATCH_MEMBERS:
                if not forks:
                    rep.merge(_verify_batch(batch))
                else:
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


def _fork(batch: list[SetFamily | Undecoded]) -> tuple[int, BinaryIO]:
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


def _verify_batch(families: list[SetFamily | Undecoded]) -> CorpusReport:
    """The battery over one batch, in this process, one stage at a time.

    If a stage raises, the stages run again on one family at a time, in
    batch order, and the first exception that comes out is raised.  Every
    stage is a pure function of its family, so that is the exception a
    family-by-family sweep raises.  When no family raises on its own, as
    with a MemoryError that needs the whole batch, the batch's own
    exception is raised.
    """
    try:
        return _battery_stages(families)
    except Exception as exc:
        error = exc
    for f in families:
        _battery_stages([f])
    raise error


def _battery_stages(families: list[SetFamily | Undecoded]) -> CorpusReport:
    """The battery, each stage a loop over the whole batch.

    The batch is decoded first, then four stages each run over the families
    that reached them: validation, the union-closed check, separation and
    the tallies; the Frankl witnesses; the chain; and the transversal with
    the audit, the lemma and the coverage alarm.  One function over the
    whole batch before the next costs less than the battery family by
    family, most on small families, and the report is the same: each list
    is filled in family order, and a family's chain lines, found a stage
    earlier, are reported just before its transversal lines.  Labels are
    rendered only for the families that get reported: rendering a large
    family costs more than checking it.
    """
    decoded = [f if isinstance(f, SetFamily) else f.decode() for f in families]

    rep = CorpusReport()
    separating: list[SetFamily] = []
    for f in decoded:
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
        if is_separating(f):
            rep.separating_count += 1
            separating.append(f)

    # The coverage alarm needs a family without a witness element, so only
    # such a family asks applicability for it in the last stage.  A
    # validated family with m >= 1 has a member, so n >= 1 needs no test.
    witnessless: list[bool] = []
    for f in separating:
        lacks = f.universe_size >= 1 and not frankl_witnesses(f)
        if lacks:
            rep.frankl_violations.append(family_label(f))
        witnessless.append(lacks)

    chain_issues = [verify_chain_witness(f, falgas_ravry_chain(f)) if f.n >= 1 else []
                    for f in separating]

    for f, lacks, issues in zip(separating, witnessless, chain_issues):
        for issue in issues:
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

        alarm = lacks and applicability(f).alarm
        if alarm:
            rep.invariant_failures.append((family_label(f), "applicability: " + alarm))
    return rep
