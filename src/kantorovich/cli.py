"""Command-line front end: JSON workspaces in, JSON or plain text out.

Workspace files are JSON objects with up to five sections (``spaces``,
``maps``, ``measures``, ``nested``, ``monoids``), each mapping names to
object definitions. Definitions may reference other named objects; several
files merge left to right with duplicate names rejected. Every loaded object
passes its construction invariants before any command runs, and no command
ever modifies a workspace file.

Every command but ``laws`` is one row of ``_COMMANDS``: its name, its help
text, its operands as ``(argument, kind)`` pairs, and an answer function.
One handler serves them all: it loads the workspace, resolves each operand
by kind, calls the answer with the parsed arguments, the workspace and the
resolved operands, and prints the JSON payload or the text lines it returns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .measure import pushforward
from .monad import expectation
from .structure import (
    Law,
    _maps_independence,
    convolve,
    is_independent,
    marginals,
    product,
)
from .transport import wasserstein

# Most cases per law that ``laws --cases`` accepts. Every case is checked
# exactly and a run grows linearly with the count; the 200-case runs of the
# acceptance criteria fit well inside.
MAX_CASES = 1000

# The workspace section of each object kind; ``jsonio._KINDS`` decodes it.
_SECTIONS = {
    "space": "spaces",
    "map": "maps",
    "measure": "measures",
    "nested": "nested",
    "monoid": "monoids",
}


def _unique_keys(pairs):
    """A JSON object's ``dict``; ValueError if it repeats a key (``json`` would keep the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"repeated key {repeated!r}")
    return obj


class _NamedError(ValueError):
    """A load error already prefixed with the file and the innermost object it comes from."""


class Workspace:
    """Named registry of validated objects loaded from JSON files.

    Both tables are keyed by ``(kind, name)``: ``_defs`` holds each
    definition with its file, ``_objects`` each decoded object, and None
    for one still being decoded, so a reference back to it is a cycle.
    """

    def __init__(self):
        self._defs = {}
        self._objects = {}
        self.counts = {}

    @classmethod
    def load(cls, paths) -> "Workspace":
        """Merge the files and validate every named object before returning.

        Objects are decoded kind by kind in ``_SECTIONS`` order, names sorted,
        and ``counts`` gives the number of each section. Input nested deeper
        than Python's recursion limit in the JSON text and a key repeated in
        one JSON object are ValueErrors naming their file. Any error in
        reading or checking a named object, depth included, names its file
        and the innermost named object, as ``<file>: <kind> '<name>': <message>``.
        """
        ws = cls()
        kinds = {section: kind for kind, section in _SECTIONS.items()}
        for path in paths or ():
            with open(path, "r", encoding="utf-8") as handle:
                try:
                    data = json.load(handle, object_pairs_hook=_unique_keys)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: invalid JSON: {exc}") from None
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
                except RecursionError:
                    raise ValueError(f"{path}: input nested too deeply") from None
            if not isinstance(data, dict):
                raise ValueError(f"{path}: workspace must be a JSON object")
            unknown = set(data) - set(kinds)
            if unknown:
                raise ValueError(f"{path}: unknown sections {sorted(unknown)}")
            for section, entries in data.items():
                if not isinstance(entries, dict):
                    raise ValueError(f"{path}: section {section!r} must map names to objects")
                for name, obj in entries.items():
                    if (kinds[section], name) in ws._defs:
                        raise ValueError(
                            f"{path}: duplicate {section} name {name!r} across workspace files"
                        )
                    ws._defs[kinds[section], name] = obj, path
        for kind, section in _SECTIONS.items():
            names = sorted(name for of, name in ws._defs if of == kind)
            for name in names:
                ws.resolve(kind, name)
            ws.counts[section] = len(names)
        return ws

    def resolve(self, kind: str, name: str):
        key = (kind, name)
        if key not in self._defs:
            raise ValueError(f"unknown {kind} {name!r}")
        if key in self._objects:
            if self._objects[key] is None:
                raise ValueError(f"circular reference through {kind} {name!r}")
            return self._objects[key]
        definition, path = self._defs[key]
        self._objects[key] = None
        try:
            self._objects[key] = jsonio._KINDS[kind][2](definition, self.resolve)
        except _NamedError:
            raise
        except ValueError as exc:
            raise _NamedError(f"{path}: {kind} {name!r}: {exc}") from None
        finally:
            if self._objects[key] is None:
                del self._objects[key]
        return self._objects[key]


def _bool(verdict):
    return "true" if verdict else "false"


def _measure(measure):
    payload = jsonio.measure_to_json(measure)
    return payload, [f"{key}: {w}" for key, w in payload["weights"].items()]


def _validate(args, ws):
    lines = [f"{section}: {n}" for section, n in sorted(ws.counts.items())]
    return {"ok": True, "counts": ws.counts}, lines + ["ok"]


def _distance(args, ws, p, q):
    fmt = jsonio.format_fraction
    value, plan, witness = wasserstein(p, q)
    payload, lines = {"distance": fmt(value)}, [fmt(value)]
    if args.verbose:
        payload["coupling"] = [[fmt(x) for x in row] for row in plan.coupling]
        payload["witness"] = jsonio.functional_to_json(witness.potential)
        lines += ["coupling:"] + ["  " + " ".join(row) for row in payload["coupling"]]
        lines += ["witness:"] + [
            f"  {key}: {v}" for key, v in payload["witness"]["values"].items()
        ]
    return payload, lines


def _marginals(args, ws, r):
    payload, lines = {}, []
    for key, measure in zip(("first", "second"), marginals(r)):
        payload[key], measure_lines = _measure(measure)
        lines += [f"{key}:"] + ["  " + line for line in measure_lines]
    return payload, lines


def _independent(args, ws, r):
    verdict = is_independent(r)
    return {"independent": verdict}, [_bool(verdict)]


def _product(args, ws, p, q):
    jsonio._check_size(len(p.space) * len(q.space))
    return _measure(product(p, q))


def _independent_maps(args, ws, s, f1, f2):
    jsonio._check_size(len(f1.codomain) * len(f2.codomain))
    verdict, pairing_short = _maps_independence(Law(s.space, s), f1, f2)
    payload = {"independent": verdict, "tupling_short": pairing_short}
    return payload, [_bool(verdict), f"tupling_short: {_bool(pairing_short)}"]


_PQ = (("p", "measure"), ("q", "measure"))

# name, help text, operands as (argument, kind), answer(args, workspace, *operands)
_COMMANDS = (
    ("validate", "load a workspace and run all invariant checks", (), _validate),
    ("distance", "exact transport distance between two measures", _PQ, _distance),
    ("product", "independent joint of two measures", _PQ, _product),
    ("marginals", "both marginals of a joint measure", (("r", "measure"),), _marginals),
    ("independent", "test a joint for independence", (("r", "measure"),), _independent),
    (
        "independent-maps",
        "test two observables of a law for independence",
        (("s", "measure"), ("f1", "map"), ("f2", "map")),
        _independent_maps,
    ),
    (
        "convolve",
        "convolve two measures over a monoid",
        (("monoid", "monoid"),) + _PQ,
        lambda args, ws, monoid, p, q: _measure(convolve(p, q, monoid)),
    ),
    (
        "expect",
        "average a nested measure",
        (("mu", "nested"),),
        lambda args, ws, mu: _measure(expectation(mu)),
    ),
    (
        "pushforward",
        "push a measure along a short map",
        (("f", "map"), ("p", "measure")),
        lambda args, ws, f, p: _measure(pushforward(f, p)),
    ),
)


def _run(args):
    ws = Workspace.load(args.workspace)
    operands = [ws.resolve(kind, getattr(args, dest)) for dest, kind in args.operands]
    payload, lines = args.answer(args, ws, *operands)
    if args.json:
        print(jsonio.dumps(payload, pretty=True))
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_laws(args):
    from .laws import run_suite

    if args.cases > MAX_CASES:
        raise ValueError(
            f"--cases {args.cases} is over the limit of {MAX_CASES} (kantorovich.cli.MAX_CASES)"
        )
    law_ids = None if args.law is None else [args.law]
    report = run_suite(args.seed, args.cases, law_ids=law_ids)
    if args.json:
        print(jsonio.dumps(report.to_json(), pretty=True))
    else:
        for law_id, entry in report.entries.items():
            print(
                f"{law_id}: {entry['status']} "
                f"({entry['cases_run']} cases, {entry['failures']} failures)"
            )
        print("all passed" if report.all_passed() else "FAILURES")
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kantorovich",
        description=(
            "Exact probability measures on finite metric spaces: transport "
            "distances, joints, marginals, independence, and law checking."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output (sorted keys)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, operands, answer in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--workspace",
            nargs="+",
            action="extend",
            required=True,
            metavar="FILE",
            help="one or more JSON workspace files, merged left to right",
        )
        for dest, _ in operands:
            p.add_argument(dest)
        p.set_defaults(func=_run, operands=operands, answer=answer)
    sub.choices["distance"].add_argument(
        "-v", "--verbose", action="store_true", help="also print coupling and witness"
    )

    p = sub.add_parser("laws", help="run the law-checking suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--law", help="run a single law by id")
    p.set_defaults(func=_cmd_laws)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the flush at exit
        # cannot fail again, as the Python docs' SIGPIPE note advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
