"""Command-line surface.

One executable, eight subcommands: analyze, closure, quotient, witness,
bounds, enumerate, random, verify.  Families are read from a file path or
"-" for stdin, in the text form, as one JSON document or as NDJSON, one
family per line; the first non-blank line decides which.  Only verify
--input takes more than one family.  Exit codes: 0 success, 1 I/O or parse
error, 2 precondition or domain violation, 3 verification failures.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .bounds import applicability, bound_report
from .errors import (
    ContradictionError,
    DomainError,
    FamilyParseError,
    PreconditionError,
    UnfinishedJSONError,
)
from .family import (
    SetFamily,
    drop_unused_elements,
    family_from_masks,
    family_label,
    find_union_gap,
    find_unseparated_pair,
    frankl_witnesses,
    is_separating,
    is_union_closed,
    separating_quotient,
    set_label,
    union_closure,
)
from .formats import (
    chain_to_json,
    corpus_to_json,
    decode_json,
    family_from_json_dict,
    family_from_ndjson,
    family_to_json_dict,
    family_to_ndjson,
    family_to_text,
    parse_family_json,
    parse_members_text,
    report_to_json,
    to_json,
    transversal_to_json,
)
from .search import FILTERS, corpus_verify, enumerate_union_closed, random_family
from .witnesses import counting_audit, falgas_ravry_chain, minimal_transversal


def _open_source(path: str):
    """The input file, or stdin for "-"."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


class _Line(NamedTuple):
    """An NDJSON corpus line, read but not yet decoded (search.Undecoded)."""

    lineno: int
    text: str

    @property
    def n(self) -> int:
        """The member count: one "[" opens the members array and one opens
        each member, which is exact on every well-formed family line."""
        return self.text.count("[") - 1

    def decode(self) -> SetFamily:
        """The line's family: a line in the writer's form is read from its
        text, any other line by json and family_from_json_dict."""
        fam = family_from_ndjson(self.text)
        if fam is not None:
            return fam
        doc = decode_json(self.text, self.lineno)
        try:
            return family_from_json_dict(doc)
        except FamilyParseError as exc:
            raise FamilyParseError(str(exc), line=self.lineno) from None


def _one_object(line: str) -> bool:
    """Whether the line opens with "{", closes with "}" and holds no other
    brace.  Its decoding then cannot fail at its end: a "}" inside a string
    leaves the string unterminated, which fails at its opening quote."""
    return line[0] == "{" and line[-1] == "}" and line.count("{") == 1 == line.count("}")


def _read_families(path: str) -> Iterator[SetFamily | _Line]:
    """The families of a family file, a JSON document or an NDJSON corpus.

    The first non-blank line alone decides the form.  When it does not
    start with "{", the whole input is one family in the text form, and
    duplicate member lines collapse with a warning.  When it is a JSON value
    on its own, the input is NDJSON, one family per line, read as the
    families are needed; errors name the line.  When its decoding fails
    exactly at its end, the whole input is one JSON document, such as the
    indented output of closure --format json.  Any other failure is an
    error on that line.

    NDJSON lines are yielded undecoded, as _Line entries that corpus_verify
    weighs by their "[" count and decodes in the batch that verifies them.
    A first line that passes _one_object is NDJSON whatever it holds; any
    other first line is decoded here only to tell a document from a corpus.
    """
    with _open_source(path) as fh:
        head = ""
        for raw in fh:
            head += raw if head else raw.removeprefix("\ufeff")  # a leading byte-order mark
            if head.strip():
                break
        if not head.lstrip().startswith("{"):
            masks = parse_members_text(head + fh.read())
            dupes = len(masks) - len(set(masks))
            if dupes:
                _warn(f"{dupes} duplicate member line(s) collapsed")
            yield family_from_masks(masks)
            return
        # splitlines() on each read line keeps the line numbers of the
        # whole-text split, which also breaks at form feeds and the like.
        lines = (line.strip() for raw in itertools.chain([head], fh)
                 for line in raw.splitlines())
        numbered = ((lineno, line) for lineno, line in enumerate(lines, start=1) if line)
        lineno, line = next(numbered)  # within head, which is not blank
        if not _one_object(line):
            try:
                decode_json(line, lineno)
            except UnfinishedJSONError:
                yield parse_family_json(head + fh.read())
                return
        del head
        yield _Line(lineno, line)
        for lineno, line in numbered:
            yield _Line(lineno, line)


def load_family(path: str) -> SetFamily:
    """Read the one family of a family file or JSON document.

    A corpus of several families is an error.  Element ids that occur in no
    member (JSON padding) are dropped with a warning, so every command
    downstream sees a validated family.
    """
    families = _read_families(path)
    fam = next(families)
    if isinstance(fam, _Line):
        fam = fam.decode()
    if next(families, None) is not None:
        raise FamilyParseError("input is a corpus of several families; "
                               "only verify --input reads corpora")
    if not fam.covers_universe:
        fam, kept = drop_unused_elements(fam)
        _warn(f"unused element ids dropped; {len(kept)} of the declared "
              "universe remain (ids renumbered)")
    return fam


def _emit_report(fmt: str, doc: Any, lines: Iterable[str], status: int = 0) -> int:
    """Print doc as JSON or the report's text lines; return the exit status.

    lines is consumed only for text output, so a generator of them costs
    nothing when JSON is asked for.
    """
    if fmt == "json":
        print(to_json(doc))
    else:
        for line in lines:
            print(line)
    return status


def _flag(value: bool) -> str:
    return str(value).lower()


def _set(ids: list[int]) -> str:
    """A document's id list as a label: ``{0,1}``, and ``{}`` for the empty set."""
    return "{" + ",".join(map(str, ids)) + "}"


def cmd_analyze(args: argparse.Namespace) -> int:
    f = load_family(args.path)
    if f.n == 0:
        raise PreconditionError("empty family")
    doc: dict[str, Any] = {
        "m": f.universe_size,
        "n": f.n,
        "union_closed": is_union_closed(f),
        "separating": is_separating(f),
        "frequencies": {str(x): c for x, c in enumerate(f.freq)},
        "order": list(f.order),
        "frankl_witnesses": frankl_witnesses(f),
        "verdict": None,
        "alarm": None,
        "notes": ["verdict requires a union-closed separating family"],
    }
    if doc["union_closed"] and doc["separating"]:
        rep = applicability(f)
        doc.update(verdict=rep.verdict, alarm=rep.alarm, notes=list(rep.notes))
    return _emit_report(args.format, doc, _analyze_lines(doc))


def _analyze_lines(doc: dict[str, Any]) -> Iterator[str]:
    yield f"m: {doc['m']}"
    yield f"n: {doc['n']}"
    yield f"union_closed: {_flag(doc['union_closed'])}"
    yield f"separating: {_flag(doc['separating'])}"
    yield "frequencies: " + " ".join(f"{x}:{c}" for x, c in doc["frequencies"].items())
    yield "order: " + " ".join(map(str, doc["order"]))
    yield "frankl_witnesses: " + " ".join(map(str, doc["frankl_witnesses"]))
    if doc["verdict"] is not None:
        yield f"verdict: {doc['verdict']}"
    if doc["alarm"]:
        yield f"alarm: {doc['alarm']}"
    for note in doc["notes"]:
        yield f"note: {note}"


def _family_lines(f: SetFamily) -> Iterator[str]:
    yield from family_to_text(f).splitlines()


def cmd_closure(args: argparse.Namespace) -> int:
    f = union_closure(load_family(args.path))
    return _emit_report(args.format, family_to_json_dict(f), _family_lines(f))


def _require_union_closed(f: SetFamily) -> None:
    gap = find_union_gap(f)
    if gap is not None:
        raise PreconditionError(
            f"family is not union-closed: {set_label(gap[0])} ∪ {set_label(gap[1])} "
            f"= {set_label(gap[0] | gap[1])} is not a member; "
            "run the closure command first")


def _require_separating(f: SetFamily) -> None:
    pair = find_unseparated_pair(f)
    if pair is not None:
        raise PreconditionError(
            f"family is not separating: elements {pair[0]} and {pair[1]} lie in "
            "exactly the same members; run the quotient command first")


def _quotient_lines(q: SetFamily, classes: list[list[int]]) -> Iterator[str]:
    yield from _family_lines(q)
    for i, cls in enumerate(classes):
        yield f"# class {i}: " + ",".join(map(str, cls))


def cmd_quotient(args: argparse.Namespace) -> int:
    f = load_family(args.path)
    _require_union_closed(f)
    q, classes = separating_quotient(f)
    doc = {"family": family_to_json_dict(q), "classes": [list(cls) for cls in classes]}
    return _emit_report(args.format, doc, _quotient_lines(q, doc["classes"]))


def _chain_lines(doc: dict[str, Any]) -> Iterator[str]:
    yield "order: " + " ".join(map(str, doc["order"]))
    for i, ids in enumerate(doc["chain"]):
        yield f"X_{i} = {_set(ids)}"
    for i, ids in enumerate(doc["m_sets"]):
        yield f"M_{i} = {_set(ids)}"
    yield f"empty_set_member: {_flag(doc['empty_set_member'])}"


def _transversal_lines(doc: dict[str, Any]) -> Iterator[str]:
    """The document's maps in their insertion order, which is numeric; its
    JSON text sorts their keys as strings."""
    yield "order: " + " ".join(map(str, doc["order"]))
    yield f"tilde_u = {_set(doc['tilde_u'])}"
    yield f"u_hat = {_set(doc['u_hat'])}"
    yield f"k: {doc['k']}"
    for x, ids in doc["a_sets"].items():
        yield f"A[{x}] = {_set(ids)}"
    for x, ids in doc["singleton_witnesses"].items():
        yield f"witness[{x}] = {_set(ids)}"
    for b, ids in doc["pb_family"].items():
        yield "P[{" + b + "}] = " + _set(ids)
    yield f"empty_set_member: {_flag(doc['empty_set_member'])}"
    yield f"full_sets_not_in_p: {doc['full_sets_not_in_p']}"


def _audit_lines(doc: dict[str, Any]) -> Iterator[str]:
    for name, value in doc.items():
        if name == "bullets_ok":
            for bullet, ok in value.items():
                yield f"bullet {bullet}: {'ok' if ok else 'VIOLATED'}"
        elif name == "inequality_holds":
            yield "inequality holds" if value else "inequality FAILS"
        else:
            yield f"{name}: {value}"


def cmd_witness(args: argparse.Namespace) -> int:
    f = load_family(args.path)
    _require_union_closed(f)
    _require_separating(f)
    if args.which == "chain":
        doc, lines = chain_to_json(f, falgas_ravry_chain(f)), _chain_lines
    else:
        tr = minimal_transversal(f)
        if args.which == "transversal":
            doc, lines = transversal_to_json(f, tr), _transversal_lines
        else:
            doc, lines = report_to_json(counting_audit(f, tr)), _audit_lines
    return _emit_report(args.format, doc, lines(doc))


def _bounds_lines(doc: dict[str, Any]) -> Iterator[str]:
    for name, value in doc.items():
        if value is not None and not isinstance(value, (dict, list)):
            yield f"{name}: {value}"
    yield "f_values: " + " ".join(f"{k}:{v}" for k, v in doc["f_values"].items())
    for note in doc["notes"]:
        yield f"note: {note}"


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.m < 2:
        raise DomainError(
            f"threshold calculus needs m >= 2 (log2 log2 m undefined), got {args.m}")
    doc = report_to_json(bound_report(args.m, args.n))
    return _emit_report(args.format, doc, _bounds_lines(doc))


def _count(text: str) -> int:
    """argparse type for counts and sizes: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class _Source(NamedTuple):
    label: str
    options: dict[str, dict[str, Any]]
    build: Callable[..., Iterable[SetFamily]]


# Each generated source: the name verify gives it in a refusal, the options
# only it reads, by dest, with their argparse keywords (verify suppresses the
# defaults), and the builder of its families from m and those options.
_SOURCES = {
    "enumerate": _Source("--m without --random", {
        "mode": {"choices": ("exhaustive", "generators"), "default": "exhaustive"},
        "filter": {"choices": FILTERS, "default": "separating"},
        "max_generators": {"type": _count, "default": None, "help":
                           "generator mode: at most this many join-irreducible members"},
    }, lambda m, mode, filter, max_generators: enumerate_union_closed(
        m, mode, family_filter=filter, max_generators=max_generators)),
    "random": _Source("--random", {
        "generators": {"type": int, "default": 10},
        "seed": {"type": int, "default": 0},
        "count": {"type": _count, "default": 1,
                  "help": "this many families, seeds seed..seed+count-1"},
    }, lambda m, generators, seed, count: (
        random_family(m, generators, seed + i) for i in range(count))),
}


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _corpus(source: str, args: argparse.Namespace) -> Iterable[SetFamily]:
    """A generated source's families; an option args lacks takes its default."""
    _, options, build = _SOURCES[source]
    return build(args.m, **{dest: getattr(args, dest, kw["default"])
                            for dest, kw in options.items()})


def _verify_families(args: argparse.Namespace) -> Iterable[SetFamily | _Line]:
    """The --input, --random or enumerated families; refuses each option
    given that their source does not read."""
    given = vars(args)
    if "input" in given:
        source, label, reads = None, "--input", ()
    elif "m" not in given:
        raise DomainError("verify needs --input PATH or --m M")
    else:
        source = "random" if "random" in given else "enumerate"
        label, reads = _SOURCES[source].label, ("m", "random", *_SOURCES[source].options)
    for dest in ("m", "random", *(d for s in _SOURCES.values() for d in s.options)):
        if dest in given and dest not in reads:
            raise DomainError(f"{_option(dest)} does not apply to verify {label}")
    return _read_families(args.input) if source is None else _corpus(source, args)


def cmd_enumerate(args: argparse.Namespace) -> int:
    for fam in _corpus("enumerate", args):
        print(family_to_ndjson(fam) if args.format == "json" else family_label(fam))
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    for i, fam in enumerate(_corpus("random", args)):
        if args.format == "json":
            print(family_to_ndjson(fam))
        else:
            if i:
                print()  # for the eye: the text form reads blank lines as nothing
            sys.stdout.write(family_to_text(fam))
    return 0


def _corpus_lines(doc: dict[str, Any]) -> Iterator[str]:
    yield f"total_families: {doc['total_families']}"
    yield f"union_closed_count: {doc['union_closed_count']}"
    yield f"separating_count: {doc['separating_count']}"
    for label in doc["frankl_violations"]:
        yield f"FRANKL VIOLATION: {label}"
    for label, name in doc["invariant_failures"]:
        yield f"INVARIANT FAILURE: {label}: {name}"
    for label, name in doc["audit_failures"]:
        yield f"AUDIT FAILURE: {label}: {name}"
    for label, reason in doc["rejections"]:
        yield f"REJECTED: {label}: {reason}"
    yield "ok" if doc["ok"] else "FAILURES FOUND"


def cmd_verify(args: argparse.Namespace) -> int:
    doc = corpus_to_json(corpus_verify(_verify_families(args)))
    return _emit_report(args.format, doc, _corpus_lines(doc), 0 if doc["ok"] else 3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucsets",
        description="Analyze, transform, and verify union-closed set families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser, source: str, **override: Any) -> None:
        for dest, kw in _SOURCES[source].options.items():
            p.add_argument(_option(dest), **{**kw, **override})

    p = sub.add_parser("analyze", help="basic structure, frequencies, verdict")
    p.add_argument("path", help="family file, or - for stdin")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("closure", help="smallest union-closed superfamily")
    p.add_argument("path")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("quotient", help="merge elements with identical columns")
    p.add_argument("path")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("witness", help="chain, transversal, or counting audit")
    p.add_argument("path")
    p.add_argument("--which", choices=("chain", "transversal", "audit"),
                   default="chain")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bounds", help="threshold calculus for a universe size")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=_count, default=None,
                   help="member count; adds an applicability verdict")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("enumerate", help="stream union-closed families")
    p.add_argument("--m", type=int, required=True)
    add_source(p, "enumerate")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("random", help="seeded random separating families")
    p.add_argument("--m", type=int, required=True)
    add_source(p, "random")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("verify", help="run the verification battery",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input",
                   help="family file, JSON document or NDJSON corpus; - for stdin")
    p.add_argument("--m", type=int)
    add_source(p, "enumerate", default=argparse.SUPPRESS)
    p.add_argument("--random", action="store_true",
                   help="verify seeded random families instead of enumerating")
    add_source(p, "random", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():  # last in each subcommand's help
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FamilyParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContradictionError as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # PreconditionError, DomainError, CapacityError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
