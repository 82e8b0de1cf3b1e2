"""One workload in one fresh interpreter: set up, run timed operations, check.

Usage: ``python3 bench/workloads.py WORKLOAD --seed N --mode MODE
[--seconds S] [--rounds R]`` from the root of a checkout. ``bench/run.py``
starts it; it prints one JSON object on its last line.

Modes: ``setup`` only imports and generates the inputs; ``timed`` runs
whole rounds until ``--seconds`` of operation and speed-probe time have
passed (and at least ``min_ops`` operations); ``fixed`` runs exactly
``--rounds`` rounds; ``trace`` does the same with every call into the
package recorded as a span. Times are scaled to a reference speed
(``speed.py``).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60
# Allowance for float rounding when self times are summed against a wall time.
ROUNDING_S = 1e-9
# Operation time between two speed probes.
PROBE_EVERY_S = 0.2


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_package():
    sys.path.insert(0, str(SRC))
    import kantorovich

    if Path(kantorovich.__file__).resolve().parent != SRC / "kantorovich":
        raise SystemExit(f"kantorovich imported from {kantorovich.__file__}, not from {SRC}")
    return kantorovich


class Op:
    """One timed call; ``check`` turns its output into (attempted, failed, problems)."""

    __slots__ = ("call", "check")

    def __init__(self, call, check):
        self.call = call
        self.check = check


class Workload:
    """Inputs made from a seed, and the rounds of operations run on them."""

    min_ops = 1
    # Operations one call stands for, counted as failed when the call raises.
    ops_per_call = 1

    def round(self, r):
        raise NotImplementedError

    def finish(self):
        """Checks that span the whole run; returns problems found."""
        return []

    def close(self):
        """Remove files made in set-up."""

    def adopt_spans(self, op_span):
        """Take in spans recorded elsewhere during the operation ``op_span``."""


# -- suite ----------------------------------------------------------------------

# A round is run_suite over the whole catalog with this many cases per law.
SUITE_CASES = 1
DIGEST_SCRIPT = (
    "import hashlib, sys\n"
    "from kantorovich import jsonio, run_suite\n"
    "report = run_suite(int(sys.argv[1]), int(sys.argv[2]))\n"
    "print(hashlib.sha256(jsonio.dumps(report.to_json()).encode()).hexdigest())\n"
)


class Suite(Workload):
    def __init__(self, seed):
        self.kz = import_package()
        from kantorovich import jsonio, run_suite

        self.jsonio, self.run_suite = jsonio, run_suite
        self.ops_per_call = sum(1 if e.expected_counterexample else SUITE_CASES for e in self.kz.CATALOG.values())
        self.rng = random.Random(f"suite:{seed}")
        self.seeds = []
        self.first_digest = None

    def round(self, r):
        while len(self.seeds) <= r:
            self.seeds.append(self.rng.randrange(2**31))
        seed = self.seeds[r]
        return [Op(lambda: self.run_suite(seed, SUITE_CASES), lambda report: self.check(seed, report))]

    def digest(self, report):
        return hashlib.sha256(self.jsonio.dumps(report.to_json()).encode()).hexdigest()

    def check(self, seed, report):
        cases = sum(e["cases_run"] for e in report.entries.values())
        problems = []
        failed = 0
        for law_id, entry in report.entries.items():
            expected = "expected-counterexample found" if law_id == "product_of_marginals_not_identity" else "pass"
            if entry["status"] != expected:
                problems.append(f"suite seed {seed}: {law_id} is {entry['status']}")
                failed += max(entry["failures"], 1)
        if not report.all_passed():
            problems.append(f"suite seed {seed}: all_passed() is false")
        if len(report.entries) != len(self.kz.CATALOG):
            problems.append(f"suite seed {seed}: {len(report.entries)} laws reported")
            failed = cases
        if self.first_digest is None:
            self.first_digest = self.digest(report)
        return cases, min(failed, cases), problems

    def finish(self):
        """The first round's report must not depend on what ran before it.

        It is run again here, after every other round has filled the tensor
        cache, and once more in a fresh interpreter; all three digests must
        agree.
        """
        seed = self.seeds[0]
        again = self.digest(self.run_suite(seed, SUITE_CASES))
        fresh = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT, str(seed), str(SUITE_CASES)],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        ).stdout.strip()
        problems = []
        if again != self.first_digest:
            problems.append(f"suite seed {seed}: report changed when run again in the same process")
        if fresh != self.first_digest:
            problems.append(f"suite seed {seed}: report differs in a fresh interpreter")
        return problems


# -- transport ------------------------------------------------------------------

# (points, solves per round, spaces). Four solves at each size up to 24 and
# one at 32: the median falls among the 16-point solves and the 90th
# percentile among the 24-point ones, near the middle of each size's spread
# of times rather than between two sizes. Solve times differ from space to
# space, so the sizes that hold the two percentiles, and the 32-point solves
# that take a third of the time, draw on many spaces.
LADDER = ((8, 4, 4), (12, 4, 4), (16, 4, 12), (20, 4, 6), (24, 4, 12), (32, 1, 6))
# Rounds of distinct measure pairs generated in set-up; later rounds reuse them.
TRANSPORT_POOL_ROUNDS = 12


class Transport(Workload):
    min_ops = 100

    def __init__(self, seed):
        import_package()
        from kantorovich import Measure, wasserstein
        from kantorovich.generate import random_space

        self.wasserstein = wasserstein
        rng = random.Random(f"transport:{seed}")
        spaces = {n: [random_space(rng, max_points=n, min_points=n) for _ in range(count)] for n, _, count in LADDER}
        self.pool = []
        for r in range(TRANSPORT_POOL_ROUNDS):
            pairs = []
            for n, solves, count in LADDER:
                for k in range(solves):
                    space = spaces[n][(r * solves + k) % count]
                    pairs.append((self.full_support(rng, Measure, space), self.full_support(rng, Measure, space)))
            self.pool.append(pairs)

    @staticmethod
    def full_support(rng, Measure, space):
        raw = [rng.randint(1, 64) for _ in space.points]
        total = sum(raw)
        return Measure(space, tuple(Fraction(x, total) for x in raw))

    def round(self, r):
        return [
            Op(lambda p=p, q=q: self.wasserstein(p, q), lambda out, p=p, q=q: self.check(p, q, out))
            for p, q in self.pool[r % len(self.pool)]
        ]

    def check(self, p, q, out):
        value, plan, witness = out
        problems = checks.w1_problems(
            p.space.dist, p.weights, q.weights, value, plan.coupling, witness.potential.values
        )
        return 1, 1 if problems else 0, problems[:1]


# -- cli --------------------------------------------------------------------------

GRID_POINTS = 24
GRID_MEASURES = 16
MAX_SUPPORT = 6
# Each round: this many distance calls, then one call of every other
# command. Distance calls are the majority so that op_p50_ms falls among them
# rather than between the two kinds.
DISTANCES_PER_ROUND = 14
# Round r uses workspace r % CLI_WORKSPACES. Sparse solve times on one grid
# have a heavy tail that differs from grid to grid, so op_p90_ms draws on
# several grids in every run.
CLI_WORKSPACES = 5
OTHER_COMMANDS = (
    ["validate"],
    ["marginals", "joint-corr"],
    ["independent", "joint-corr"],
    ["independent", "joint-indep"],
    ["product", "pa", "pb"],
    ["expect", "mix"],
    ["convolve", "cyclic", "c1", "c2"],
    ["pushforward", "bucket", "m0"],
)


def _rational(x):
    return checks.format_rational(x)


def _metric(rng, n, prefix):
    """A random metric: symmetric rationals closed under shortest paths."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 24), rng.randint(1, 4))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return {"points": [f"{prefix}{i}" for i in range(n)], "dist": [[_rational(x) for x in row] for row in d]}, d


def _uniform_metric(points, scale):
    return {"points": points, "dist": [[_rational(0 if a == b else scale) for b in points] for a in points]}


def _weights(rng, labels, support):
    chosen = rng.sample(labels, support)
    raw = {label: rng.randint(1, 64) for label in chosen}
    total = sum(raw.values())
    return {label: Fraction(x, total) for label, x in raw.items()}


def cli_workspace(seed, index):
    """One ``cli`` workspace for a seed, as JSON-ready data, and its distance pairs."""
    rng = random.Random(f"cli:{seed}:{index}")
    grid, d = _metric(rng, GRID_POINTS, "x")
    closest = min(d[i][j] for i in range(GRID_POINTS) for j in range(GRID_POINTS) if i != j)
    a_space, _ = _metric(rng, 3, "a")
    b_space, _ = _metric(rng, 4, "b")
    buckets = [f"k{i}" for i in range(4)]
    carrier = [f"g{i}" for i in range(4)]
    measures = {
        f"m{i}": {"space": "grid", "weights": _weights(rng, grid["points"], rng.randint(1, MAX_SUPPORT))}
        for i in range(GRID_MEASURES)
    }
    pa = _weights(rng, a_space["points"], 3)
    pb = _weights(rng, b_space["points"], 4)
    pairs = [(a, b) for a in a_space["points"] for b in b_space["points"]]
    corr = _weights(rng, pairs, MAX_SUPPORT)
    measures.update(
        {
            "pa": {"space": "A", "weights": pa},
            "pb": {"space": "B", "weights": pb},
            "joint-indep": {"space": "AB", "weights": {(a, b): pa[a] * pb[b] for a, b in pairs}},
            "joint-corr": {"space": "AB", "weights": corr},
            "c1": {"space": "C", "weights": _weights(rng, carrier, 3)},
            "c2": {"space": "C", "weights": _weights(rng, carrier, 2)},
        }
    )
    for m in measures.values():
        m["weights"] = {checks.label_key(k): _rational(w) for k, w in m["weights"].items()}
    inner = rng.sample(sorted(m for m in measures if m.startswith("m")), 3)
    raw = [rng.randint(1, 64) for _ in inner]
    workspace = {
        "spaces": {
            "grid": grid,
            "A": a_space,
            "B": b_space,
            "AB": {"tensor": ["A", "B"]},
            # Every map into K is short: its distances are the grid's smallest.
            "K": _uniform_metric(buckets, closest),
            "C": _uniform_metric(carrier, 1),
            "CC": {"tensor": ["C", "C"]},
        },
        "maps": {
            "bucket": {
                "domain": "grid",
                "codomain": "K",
                "table": {x: rng.choice(buckets) for x in grid["points"]},
            }
        },
        "measures": measures,
        "nested": {"mix": {"base": "grid", "inner": inner, "weights": [_rational(Fraction(x, sum(raw))) for x in raw]}},
        "monoids": {
            "cyclic": {
                "carrier": "C",
                "mult": {
                    "domain": "CC",
                    "codomain": "C",
                    "table": {
                        checks.label_key((a, b)): carrier[(i + j) % 4]
                        for i, a in enumerate(carrier)
                        for j, b in enumerate(carrier)
                    },
                },
                "unit": "g0",
            }
        },
    }
    names = sorted(m for m in measures if m.startswith("m"))
    return workspace, rng.sample([(p, q) for p in names for q in names if p != q], DISTANCES_PER_ROUND)


class Cli(Workload):
    min_ops = 100

    def __init__(self, seed, tracer=None):
        OUT.mkdir(exist_ok=True)
        self.workspaces = []  # (path, model, distance pairs)
        for index in range(CLI_WORKSPACES):
            data, pairs = cli_workspace(seed, index)
            path = OUT / f"cli-workspace-{seed}-{index}-{os.getpid()}.json"
            path.write_text(json.dumps(data, indent=1, sort_keys=True), encoding="utf-8")
            self.workspaces.append((path, checks.Workspace(data), pairs))
        self.tracer = None
        # One untimed call first, so bytecode caches exist before timing.
        warm = self.invoke(self.workspaces[0][0], ["validate"])
        if warm.returncode != 0:
            raise SystemExit(f"workspace does not validate: {warm.stderr.strip()}")
        self.tracer = tracer

    def invoke(self, path, argv):
        full = ["--json"] + argv + ["--workspace", str(path)]
        if self.tracer is None:
            command = [sys.executable, "-m", "kantorovich.cli"] + full
        else:
            command = [sys.executable, str(Path(__file__).with_name("clichild.py")), str(self.spans_file)] + full
        return subprocess.run(command, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    @property
    def spans_file(self):
        return OUT / f"cli-spans-{os.getpid()}.json"

    def round(self, r):
        path, model, pairs = self.workspaces[r % len(self.workspaces)]
        commands = [["distance", p, q, "-v"] for p, q in pairs] + [list(c) for c in OTHER_COMMANDS]
        return [
            Op(lambda argv=argv: self.invoke(path, argv), lambda out, argv=argv: self.check(model, argv, out))
            for argv in commands
        ]

    def check(self, model, argv, out):
        if out.returncode != 0:
            return 1, 1, [f"{' '.join(argv)}: exit {out.returncode}: {out.stderr.strip()[-200:]}"]
        try:
            problems = checks.cli_problems(model, argv, json.loads(out.stdout))
        except ValueError as exc:
            problems = [f"{' '.join(argv)}: {exc}"]
        return 1, 1 if problems else 0, problems[:1]

    def adopt_spans(self, op_span):
        try:
            exported = json.loads(self.spans_file.read_text(encoding="utf-8"))
        except FileNotFoundError:  # the child died before writing; its operation failed
            return
        self.spans_file.unlink()
        self.tracer.adopt(exported, op_span)

    def close(self):
        for path, _, _ in self.workspaces:
            path.unlink(missing_ok=True)


WORKLOADS = {"suite": Suite, "transport": Transport, "cli": Cli}


# -- the loop ---------------------------------------------------------------------


def call(op):
    """The operation's output, or the exception it raised: a failed operation."""
    try:
        return op.call()
    except Exception as exc:  # noqa: BLE001  (counted and reported, the run goes on)
        return exc


def run(workload, seconds=None, rounds=None, tracer=None):
    """Timed rounds, with a speed probe after every ``PROBE_EVERY_S`` of operations.

    Each operation's time is scaled by the mean of the probes before and
    after it (``speed.py``). The run ends once operations and probes
    together have taken ``seconds``.
    """
    ops = []  # (reference seconds, attempted, failed) per operation
    problems = []
    pending = []  # (seconds, attempted, failed) since the last probe
    probes = [speed.probe()]
    busy = probes[0]
    since_probe = 0.0
    clock = time.perf_counter

    def settle():
        probes.append(speed.probe())
        factor = speed.scale((probes[-2] + probes[-1]) / 2)
        ops.extend((s * factor, a, f) for s, a, f in pending)
        pending.clear()
        return probes[-1]

    r = 0
    while True:
        done = sum(a for _, a, _ in ops) + sum(a for _, a, _ in pending)
        if rounds is not None and r >= rounds:
            break
        if rounds is None and busy >= seconds and done >= workload.min_ops:
            break
        for op in workload.round(r):
            if tracer is None:
                t0 = clock()
                out = call(op)
                elapsed = clock() - t0
            else:
                with tracer.span("bench.op") as op_span:
                    t0 = clock()
                    out = call(op)
                    elapsed = clock() - t0
                workload.adopt_spans(op_span)
            if isinstance(out, Exception):
                attempted = failed = workload.ops_per_call
                found = [f"operation raised {type(out).__name__}: {out}"]
            else:
                attempted, failed, found = op.check(out)
            pending.append((elapsed, attempted, failed))
            problems.extend(found)
            busy += elapsed
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_S:
                busy += settle()
                since_probe = 0.0
        r += 1
    if pending:
        settle()
    return ops, problems, probes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.mode == "trace" else None
    if args.workload == "cli":
        workload = Cli(args.seed, tracer)
    else:
        if tracer is not None:
            import_package()
            import kantorovich.generate  # noqa: F401  (loaded now so it is wrapped)

            tracing.install(tracer)
        workload = WORKLOADS[args.workload](args.seed)
    setup_raw_s = time.perf_counter() - START
    setup_probe_s = statistics.median(speed.probe() for _ in range(speed.SETUP_PROBES))
    setup_s = setup_raw_s * speed.scale(setup_probe_s)
    if args.mode == "setup":
        workload.close()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return

    timed = args.mode == "timed"
    ops, problems, probes = run(workload, args.seconds if timed else None, None if timed else args.rounds, tracer)
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "ops": ops,
        "probe_ms": [1000.0 * min(probes), 1000.0 * statistics.median(probes), 1000.0 * max(probes)],
        "problems": problems[:20],
    }
    integrity = []
    if tracer is not None:
        # Layer figures cover set-up and the fixed work, not the checks below.
        if args.workload != "cli":
            tracer.count_tensor_cache()
        excess = tracing.op_self_excess(tracer.spans)
        if excess > ROUNDING_S:
            integrity.append(f"self times inside one operation exceed its wall time by {excess:.6f} s")
        result["layers"] = tracing.layer_metrics(tracer)
    integrity += workload.finish()
    workload.close()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["integrity"] = integrity
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json.gz"
        with gzip.open(trace_file, "wt", encoding="utf-8") as handle:
            for k, (parent, name, t0, t1) in enumerate(tracer.spans):
                handle.write(f"{json.dumps([k, parent, name, t0, t1])}\n")
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
