"""Command-line front end: JSON workspaces in, JSON or plain text out.

Workspace files are JSON objects with up to five sections (``spaces``,
``maps``, ``measures``, ``nested``, ``monoids``), each mapping names to
object definitions. Definitions may reference other named objects; several
files merge left to right with duplicate names rejected. Every loaded object
passes its construction invariants before any command runs, and no command
ever modifies a workspace file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .laws import CATALOG, DEFAULT_BUDGET, run_suite
from .measure import pushforward
from .monad import expectation
from .structure import (
    Law,
    convolve,
    independent_maps,
    is_independent,
    marginals,
    product,
    tupling_table,
)
from .transport import wasserstein

# Most cases per law that ``laws --cases`` accepts. Every case is checked
# exactly and a run grows linearly with the count; the 200-case runs of the
# acceptance criteria fit well inside.
MAX_CASES = 1000

_SECTIONS = {
    "space": "spaces",
    "map": "maps",
    "measure": "measures",
    "nested": "nested",
    "monoid": "monoids",
}

_DECODERS = {
    "space": jsonio.space_from_json,
    "map": jsonio.map_from_json,
    "measure": jsonio.measure_from_json,
    "nested": jsonio.nested_from_json,
    "monoid": jsonio.monoid_from_json,
}


class Workspace:
    """Named registry of validated objects loaded from JSON files."""

    def __init__(self):
        self._raw = {section: {} for section in _SECTIONS.values()}
        self._cache = {section: {} for section in _SECTIONS.values()}
        self._visiting = set()

    @classmethod
    def load(cls, paths) -> "Workspace":
        """Merge the files and validate every named object before returning."""
        ws = cls()
        for path in paths or ():
            with open(path, "r", encoding="utf-8") as handle:
                try:
                    data = json.load(handle)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: invalid JSON: {exc}") from None
            if not isinstance(data, dict):
                raise ValueError(f"{path}: workspace must be a JSON object")
            unknown = set(data) - set(_SECTIONS.values())
            if unknown:
                raise ValueError(f"{path}: unknown sections {sorted(unknown)}")
            for section, entries in data.items():
                if not isinstance(entries, dict):
                    raise ValueError(f"{path}: section {section!r} must map names to objects")
                for name, obj in entries.items():
                    if name in ws._raw[section]:
                        raise ValueError(
                            f"{path}: duplicate {section} name {name!r} across workspace files"
                        )
                    ws._raw[section][name] = obj
        ws.validate_all()
        return ws

    def resolve(self, kind: str, name: str):
        section = _SECTIONS[kind]
        if name in self._cache[section]:
            return self._cache[section][name]
        if name not in self._raw[section]:
            raise ValueError(f"unknown {kind} {name!r}")
        key = (section, name)
        if key in self._visiting:
            raise ValueError(f"circular reference through {kind} {name!r}")
        self._visiting.add(key)
        try:
            obj = _DECODERS[kind](self._raw[section][name], self.resolve)
        finally:
            self._visiting.discard(key)
        self._cache[section][name] = obj
        return obj

    def validate_all(self):
        """Force every named object through its construction checks."""
        counts = {}
        for kind, section in _SECTIONS.items():
            for name in sorted(self._raw[section]):
                self.resolve(kind, name)
            counts[section] = len(self._raw[section])
        return counts


def _emit(args, payload, human_lines):
    if args.json:
        print(jsonio.dumps(payload, pretty=True))
    else:
        for line in human_lines:
            print(line)


def _measure_lines(measure):
    return [
        f"{jsonio.label_key(p)}: {jsonio.format_fraction(w)}"
        for p, w in zip(measure.space.points, measure.weights)
        if w
    ]


def _cmd_validate(args):
    ws = Workspace.load(_workspace_files(args))
    counts = ws.validate_all()
    payload = {"ok": True, "counts": counts}
    _emit(args, payload, [f"{section}: {n}" for section, n in sorted(counts.items())] + ["ok"])
    return 0


def _cmd_distance(args):
    ws = Workspace.load(_workspace_files(args))
    p = ws.resolve("measure", args.p)
    q = ws.resolve("measure", args.q)
    value, plan, witness = wasserstein(p, q)
    payload = {"distance": jsonio.format_fraction(value)}
    lines = [jsonio.format_fraction(value)]
    if args.verbose:
        payload["coupling"] = [
            [jsonio.format_fraction(x) for x in row] for row in plan.coupling
        ]
        payload["witness"] = jsonio.functional_to_json(witness.potential)
        lines.append("coupling:")
        lines.extend(
            "  " + " ".join(jsonio.format_fraction(x) for x in row)
            for row in plan.coupling
        )
        lines.append("witness:")
        lines.extend(
            f"  {jsonio.label_key(pt)}: {jsonio.format_fraction(v)}"
            for pt, v in zip(p.space.points, witness.potential.values)
        )
    _emit(args, payload, lines)
    return 0


def _cmd_product(args):
    ws = Workspace.load(_workspace_files(args))
    p = ws.resolve("measure", args.p)
    q = ws.resolve("measure", args.q)
    joint = product(p, q)
    _emit(args, jsonio.measure_to_json(joint), _measure_lines(joint))
    return 0


def _cmd_marginals(args):
    ws = Workspace.load(_workspace_files(args))
    r = ws.resolve("measure", args.r)
    first, second = marginals(r)
    payload = {
        "first": jsonio.measure_to_json(first),
        "second": jsonio.measure_to_json(second),
    }
    lines = (
        ["first:"]
        + ["  " + line for line in _measure_lines(first)]
        + ["second:"]
        + ["  " + line for line in _measure_lines(second)]
    )
    _emit(args, payload, lines)
    return 0


def _cmd_independent(args):
    ws = Workspace.load(_workspace_files(args))
    r = ws.resolve("measure", args.r)
    verdict = is_independent(r)
    _emit(args, {"independent": verdict}, ["true" if verdict else "false"])
    return 0


def _cmd_independent_maps(args):
    ws = Workspace.load(_workspace_files(args))
    s = ws.resolve("measure", args.s)
    f1 = ws.resolve("map", args.f1)
    f2 = ws.resolve("map", args.f2)
    law = Law(s.space, s)
    verdict = independent_maps(law, f1, f2)
    _, _, pairing_short = tupling_table(f1, f2)
    payload = {"independent": verdict, "tupling_short": pairing_short}
    lines = [
        "true" if verdict else "false",
        f"tupling_short: {'true' if pairing_short else 'false'}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_convolve(args):
    ws = Workspace.load(_workspace_files(args))
    monoid = ws.resolve("monoid", args.monoid)
    p = ws.resolve("measure", args.p)
    q = ws.resolve("measure", args.q)
    out = convolve(p, q, monoid)
    _emit(args, jsonio.measure_to_json(out), _measure_lines(out))
    return 0


def _cmd_expect(args):
    ws = Workspace.load(_workspace_files(args))
    mu = ws.resolve("nested", args.mu)
    out = expectation(mu)
    _emit(args, jsonio.measure_to_json(out), _measure_lines(out))
    return 0


def _cmd_pushforward(args):
    ws = Workspace.load(_workspace_files(args))
    f = ws.resolve("map", args.f)
    p = ws.resolve("measure", args.p)
    out = pushforward(f, p)
    _emit(args, jsonio.measure_to_json(out), _measure_lines(out))
    return 0


def _cmd_laws(args):
    if args.cases > MAX_CASES:
        print(
            f"error: --cases {args.cases} is over the limit of {MAX_CASES} "
            "(kantorovich.cli.MAX_CASES)",
            file=sys.stderr,
        )
        return 2
    law_ids = None
    if args.law is not None:
        if args.law not in CATALOG:
            print(f"error: unknown law {args.law!r}", file=sys.stderr)
            return 2
        law_ids = [args.law]
    report = run_suite(args.seed, args.cases, DEFAULT_BUDGET, law_ids)
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


def _add_workspace(parser):
    parser.add_argument(
        "--workspace",
        nargs="+",
        action="append",
        required=True,
        metavar="FILE",
        help="one or more JSON workspace files, merged left to right",
    )


def _workspace_files(args):
    return [path for group in args.workspace for path in group]


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

    p = sub.add_parser("validate", help="load a workspace and run all invariant checks")
    _add_workspace(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("distance", help="exact transport distance between two measures")
    _add_workspace(p)
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument(
        "-v", "--verbose", action="store_true", help="also print coupling and witness"
    )
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("product", help="independent joint of two measures")
    _add_workspace(p)
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("marginals", help="both marginals of a joint measure")
    _add_workspace(p)
    p.add_argument("r")
    p.set_defaults(func=_cmd_marginals)

    p = sub.add_parser("independent", help="test a joint for independence")
    _add_workspace(p)
    p.add_argument("r")
    p.set_defaults(func=_cmd_independent)

    p = sub.add_parser(
        "independent-maps", help="test two observables of a law for independence"
    )
    _add_workspace(p)
    p.add_argument("s")
    p.add_argument("f1")
    p.add_argument("f2")
    p.set_defaults(func=_cmd_independent_maps)

    p = sub.add_parser("convolve", help="convolve two measures over a monoid")
    _add_workspace(p)
    p.add_argument("monoid")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("expect", help="average a nested measure")
    _add_workspace(p)
    p.add_argument("mu")
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("pushforward", help="push a measure along a short map")
    _add_workspace(p)
    p.add_argument("f")
    p.add_argument("p")
    p.set_defaults(func=_cmd_pushforward)

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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
