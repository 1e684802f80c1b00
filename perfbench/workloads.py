"""The benchmark's workloads, their output checks and the closed loop.

Every workload is driven by one client in a closed loop: the next request
starts when the previous one has returned and been checked.  Requests use
only rovib's public functions (`manifold`, `compare`) or its command line
started in a fresh interpreter (`cli`); the seeded molecule table reaches
the package only through ``load_database(path)`` and ``--db``.  See
README.md in this directory for why each workload exists and which layer
each metric watches.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from rovib import database, oracle, potentials, rotational, spectrum, units

import spans
import tablegen
from cli_child import TRACE_MARKER

REF_TOL_CM1 = 0.005  # closed form against the reference tables
ORACLE_J0_TOL_CM1 = 0.1  # oracle against closed form at J = 0 (tier-1 band)
ORACLE_DELTA_TOL_CM1 = 1.0  # oracle against closed form at any J (tier-1 band)
CONVERGE_TOL_CM1 = 0.01  # converge()'s own default tolerance

REF_NU = (0, 3, 5)
REF_J = (0, 1, 2, 3, 4, 5, 10, 15, 20)
COMPARE_MOLECULES = ("NO", "O2", "O2+")
ORACLE_POINTS = 16384  # CLI default of `rovib compare`
CLI_GRID_POINTS = 2000
J_MAX = 200

MIN_REQUESTS = 11  # so that the tail percentile has 10 samples beyond it
RERUN_SECONDS = 3.0  # traced request time repeated without spans (at least 3 requests)
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
LOAD_PROBES = 20
CHILD_TIMEOUT_S = 60  # a call takes ~0.6 s; a run must end within 180 s

CLI_LAUNCH = "from rovib.cli import main; main()"
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import rovib\n"
    "from rovib.database import load_database\n"
    "load_database(sys.argv[1])\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass
class Outcome:
    ops: int = 0
    failed: int = 0
    levels: int = 0

    def add(self, other: "Outcome") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.levels += other.levels


@dataclass
class Context:
    table_path: Path
    db: object
    reference: object
    env: dict
    check_rng: random.Random
    traced: bool = False
    child_summaries: list = field(default_factory=list)

    def params(self, name):
        return self.db.get(name)


def _fail(message: str) -> None:
    print(f"check failed: {message}", file=sys.stderr)


class Mismatch(Exception):
    """A CLI call's output differs from the library's values."""


def _expect(ok: bool, what) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# manifold: full closed-form rectangles


class Manifold:
    """One level_table over nu = 0..bound count, J = 0..J_MAX per request."""

    name = "manifold"

    def cycles(self, rng, ctx):
        while True:
            order = list(ctx.db.names)
            rng.shuffle(order)
            yield [{"molecule": name} for name in order]

    def _grid(self, params):
        nus = list(range(tablegen.bound_count(params.De, params.we) + 1))
        return nus, list(range(J_MAX + 1))

    def warm_up(self, ctx):
        spectrum.level_table(ctx.params("NO"), list(range(6)), list(range(6)))

    def execute(self, ctx, req):
        params = ctx.params(req["molecule"])
        return spectrum.level_table(params, *self._grid(params))

    def check(self, ctx, req, out) -> Outcome:
        name = req["molecule"]
        params = ctx.params(name)
        nus, Js = self._grid(params)
        expected = len(nus) * len(Js)
        if isinstance(out, Exception):
            return Outcome(ops=expected, failed=expected)
        rows, failures = out
        bad = {(f.nu, f.J) for f in failures}
        by_key = {(row.nu, row.J): row for row in rows}
        for (nu, J), row in by_key.items():
            if not math.isfinite(row.E):
                bad.add((nu, J))
            elif row.bound:
                # bound levels rise with nu at fixed J and with J at fixed nu
                for prev in (by_key.get((nu - 1, J)), by_key.get((nu, J - 1))):
                    if prev is not None and prev.bound and not prev.E < row.E:
                        bad.add((nu, J))
        for (nu, J), (_, closed) in ctx.reference.REFERENCE_LEVELS.get(name, {}).items():
            row = by_key.get((nu, J))
            if row is None or abs(row.E - closed) > REF_TOL_CM1:
                bad.add((nu, J))
        for key in ctx.check_rng.sample(sorted(by_key), 3):
            if spectrum.level(params, *key) != by_key[key]:
                bad.add(key)
        missing = expected - len(by_key) - len(failures)
        if bad or missing:
            _fail(f"manifold {name}: {len(bad)} bad levels, {missing} missing")
        return Outcome(ops=expected, failed=len(bad) + max(missing, 0), levels=len(rows))


# ---------------------------------------------------------------------------
# compare: the grid oracle


class Compare:
    """deviation_report on the reference grid, or converge(nu=5, J=20)."""

    name = "compare"

    def cycles(self, rng, ctx):
        ops = [(op, name) for op in ("report", "converge") for name in COMPARE_MOLECULES]
        while True:
            rng.shuffle(ops)
            yield [{"op": op, "molecule": name} for op, name in ops]

    def warm_up(self, ctx):
        oracle.deviation_report(ctx.params("NO"), [0], [0], n_points=CLI_GRID_POINTS)

    def execute(self, ctx, req):
        params = ctx.params(req["molecule"])
        if req["op"] == "report":
            return oracle.deviation_report(
                params, list(REF_NU), list(REF_J), n_points=ORACLE_POINTS
            )
        return oracle.converge(potentials.from_params(params), J=20, mu=params.mu, nu=5)

    def check(self, ctx, req, out) -> Outcome:
        name = req["molecule"]
        if isinstance(out, Exception):
            return Outcome(ops=1, failed=1)
        problems = []
        if req["op"] == "report":
            reference = ctx.reference.REFERENCE_LEVELS[name]
            if out.failures or len(out.rows) != len(REF_NU) * len(REF_J):
                problems.append(f"{len(out.rows)} rows, {len(out.failures)} failures")
            for row in out.rows:
                if abs(row.E_closed - reference[(row.nu, row.J)][1]) > REF_TOL_CM1:
                    problems.append(f"closed form off the reference at {row.nu},{row.J}")
                limit = ORACLE_J0_TOL_CM1 if row.J == 0 else ORACLE_DELTA_TOL_CM1
                if not abs(row.delta) <= limit:
                    problems.append(f"oracle off by {row.delta} at {row.nu},{row.J}")
            levels = len(out.rows)
        else:
            closed = spectrum.level(ctx.params(name), 5, 20).E
            if not out.difference < CONVERGE_TOL_CM1:
                problems.append(f"converge difference {out.difference}")
            if not abs(out.extrapolated - closed) <= ORACLE_DELTA_TOL_CM1:
                problems.append(f"converged level {out.extrapolated} vs {closed}")
            levels = 1
        for problem in problems:
            _fail(f"compare {req['op']} {name}: {problem}")
        return Outcome(ops=1, failed=1 if problems else 0, levels=levels)


# ---------------------------------------------------------------------------
# cli: short commands in a fresh interpreter


def _index_spec(values) -> str:
    return ",".join(str(v) for v in values)


class Cli:
    """A seeded rotation of every subcommand, each call a fresh interpreter."""

    name = "cli"
    KINDS = (("levels", "text"), ("levels", "csv"), ("levels", "json"),
             ("morse", "csv"), ("varshni", "json"), ("approx-error", "csv"),
             ("compare", "csv"))

    def cycles(self, rng, ctx):
        kinds = list(self.KINDS)
        while True:
            rng.shuffle(kinds)
            yield [self._call(rng, ctx, command, fmt) for command, fmt in kinds]

    def _call(self, rng, ctx, command, fmt):
        name = rng.choice(ctx.db.names)
        params = ctx.params(name)
        top = tablegen.bound_count(params.De, params.we)
        argv = [command, name, "--format", fmt]
        if command == "levels":
            nus = sorted(rng.sample(range(top + 1), 4))
            Js = sorted(rng.sample(range(61), 4))
            unit = rng.choice(("cm-1", "roy_eV"))
            argv += ["--nu", _index_spec(nus), "--J", _index_spec(Js),
                     "--unit", unit]
        elif command == "morse":
            argv += ["--nu", _index_spec(sorted(rng.sample(range(top + 1), 6)))]
        elif command == "compare":
            nus = sorted(rng.sample(REF_NU, 2))
            Js = [0] + sorted(rng.sample(range(1, 21), 2))
            argv += ["--nu", _index_spec(nus), "--J", _index_spec(Js),
                     "--grid-points", str(CLI_GRID_POINTS)]
        return {"argv": argv + ["--db", str(ctx.table_path)]}

    def warm_up(self, ctx):
        pass  # the set-up children already compiled and cached the package

    def execute(self, ctx, req):
        if ctx.traced:
            launcher = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
        else:
            launcher = [sys.executable, "-c", CLI_LAUNCH]
        proc = subprocess.run(
            launcher + req["argv"], capture_output=True, text=True, env=ctx.env,
            timeout=CHILD_TIMEOUT_S,
        )
        if ctx.traced:
            _, marker, summary = proc.stderr.rpartition(TRACE_MARKER)
            if marker:
                ctx.child_summaries.append(json.loads(summary))
        return proc.returncode, proc.stdout

    def check(self, ctx, req, out) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(ops=1, failed=1)
        code, stdout = out
        argv = req["argv"]
        params = ctx.params(argv[1])
        try:
            _expect(code == 0, f"exit code {code}")
            levels = getattr(self, "_check_" + argv[0].replace("-", "_"))(
                params, _options(argv), stdout
            )
        except Exception as exc:  # a mismatch or unparsable output is one failed call
            _fail(f"cli {' '.join(argv[:2])}: {exc!r}")
            return Outcome(ops=1, failed=1)
        return Outcome(ops=1, levels=levels)

    def _check_levels(self, params, opts, stdout) -> int:
        rows, failures = spectrum.level_table(
            params, _indices(opts["--nu"]), _indices(opts["--J"])
        )
        _expect(not failures, failures)
        roy = opts["--unit"] == "roy_eV"
        values = [
            units.wavenumber_to_roy_ev(row.E, params.De) if roy else row.E for row in rows
        ]
        col = "E_roy_eV" if roy else "E_cm1"
        fmt = opts["--format"]
        if fmt == "json":
            expected = [
                {"molecule": params.name, "nu": row.nu, "J": row.J, col: value,
                 "bound": row.bound}
                for row, value in zip(rows, values)
            ]
            _expect(json.loads(stdout) == expected, "json rows")
        elif fmt == "csv":
            digits = 8 if roy else 6
            expected = [f"molecule,nu,J,{col}"] + [
                f"{params.name},{row.nu},{row.J},{value:.{digits}f}"
                for row, value in zip(rows, values)
            ]
            _expect(stdout.splitlines() == expected, "csv rows")
        else:
            got = [line.split() for line in stdout.splitlines()[1:]]
            expected = [
                [params.name, str(row.nu), str(row.J), f"{value:.4f}"]
                + ([] if row.bound else ["(beyond", "bound", "range)"])
                for row, value in zip(rows, values)
            ]
            _expect(got == expected, "text rows")
        return len(rows)

    def _check_morse(self, params, opts, stdout) -> int:
        nus = _indices(opts["--nu"])
        energies = [spectrum.morse_vibrational_energy(params.De, params.we, nu) for nu in nus]
        expected = ["molecule,nu,E_cm1"] + [
            f"{params.name},{nu},{E:.6f}" for nu, E in zip(nus, energies)
        ]
        _expect(stdout.splitlines() == expected, "csv rows")
        return len(nus)

    def _check_varshni(self, params, opts, stdout) -> int:
        got = json.loads(stdout)
        derived = potentials.derive(params)
        report = potentials.verify_varshni(potentials.from_params(params), derived)
        expected = {
            "molecule": params.name,
            "re_A": report.re,
            "depth_cm1": report.depth,
            "Ke_cm1_A2": derived.Ke,
            "q": derived.q,
            "beta_derived_inv_A": derived.beta,
            "alpha_w_corrected_inv_A": potentials.alpha_dmrm(params, derived, "corrected"),
        }
        _expect({key: got.get(key) for key in expected} == expected, "json fields")
        return 0

    def _check_approx_error(self, params, opts, stdout) -> int:
        derived = potentials.derive(params)
        coeffs = rotational.badawi_coefficients(derived.u, params.eta)
        radii = rotational.default_r_grid(
            params.re, 200, pole=potentials.pole_radius(derived.b, derived.q)
        )
        rational = rotational.centrifugal_approx_error(
            coeffs, derived.q, derived.u, derived.b, radii
        )
        exponential = rotational.greene_aldrich_error(derived.b, radii)
        expected = ["r_A,rational_rel_err,exponential_rel_err"] + [
            f"{r:.6f},{a:.6e},{g:.6e}" for r, a, g in zip(radii, rational, exponential)
        ]
        _expect(stdout.splitlines() == expected, "csv rows")
        return 0

    def _check_compare(self, params, opts, stdout) -> int:
        report = oracle.deviation_report(
            params, _indices(opts["--nu"]), _indices(opts["--J"]),
            n_points=int(opts["--grid-points"]),
        )
        _expect(not report.failures, report.failures)
        expected = ["molecule,nu,J,E_cm1,E_oracle_cm1,delta_cm1"] + [
            f"{params.name},{row.nu},{row.J},{row.E_closed:.6f},{row.E_oracle:.6f},"
            f"{row.delta:.6f}"
            for row in report.rows
        ]
        _expect(stdout.splitlines() == expected, "csv rows")
        for row in report.rows:
            _expect(row.J != 0 or abs(row.delta) <= ORACLE_J0_TOL_CM1, row)
        return len(report.rows)


def _options(argv) -> dict[str, str]:
    return dict(zip(argv[2::2], argv[3::2]))


def _indices(spec: str) -> list[int]:
    return [int(v) for v in spec.split(",")]


WORKLOADS = {w.name: w for w in (Manifold(), Compare(), Cli())}


# ---------------------------------------------------------------------------
# checks shared by every run


def load_reference(root: Path):
    """tests/reference_levels.py of the checkout, loaded as a module."""
    path = root / "tests" / "reference_levels.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference_levels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_residuals(ctx) -> list[float]:
    """|closed form - reference closed_form column| for every bundled entry."""
    out = []
    for name, table in ctx.reference.REFERENCE_LEVELS.items():
        params = ctx.params(name)
        out += [abs(spectrum.level(params, nu, J).E - closed)
                for (nu, J), (_, closed) in table.items()]
    n2 = ctx.params("N2")
    out += [abs(spectrum.level(n2, nu, 0).E - columns[2])
            for nu, columns in ctx.reference.N2_REFERENCE_COLUMNS.items()]
    return out


def oracle_j0_errors(ctx) -> list[float]:
    """|oracle - closed form| at J = 0, where the closed form is exact."""
    out = []
    for name in COMPARE_MOLECULES:
        report = oracle.deviation_report(
            ctx.params(name), list(REF_NU), [0], n_points=ORACLE_POINTS
        )
        out += [abs(row.delta) for row in report.rows]
        out += [math.inf] * (len(REF_NU) - len(report.rows))
    return out


def measure_setup(ctx) -> list[float]:
    """Fresh-interpreter import plus load_database of the table, repeated."""
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ctx.table_path)],
            capture_output=True, text=True, env=ctx.env, timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        if attempt:  # the first one compiles bytecode and warms the file cache
            samples.append(float(proc.stdout))
    return samples


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing rovib and scipy, from ``-X importtime`` output.

    Lines come in post-order (a module after everything it imported), so
    walking them backwards visits each parent before its children; a
    module counts when no enclosing import already belongs to its package.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative, name = parts[1].strip(), parts[2]
        if cumulative.isdigit():
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, name.strip(), int(cumulative)))
    totals = {"rovib": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.partition(".")[0]
        if package in totals and all(p != package for _, p in stack):
            totals[package] += cumulative * 1e-6
        stack.append((depth, package))
    return totals


def measure_imports(ctx) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rovib.cli"],
            capture_output=True, text=True, env=ctx.env, timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        runs.append(import_times(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopResult:
    times: list[float]
    requests: list[dict]
    outputs: list  # traced runs: outputs of the requests to repeat without spans
    outcome: Outcome


def closed_loop(workload, ctx, cycles, seconds, tracer=None) -> LoopResult:
    """Run whole request cycles until ``seconds`` have passed.

    Stopping only between cycles keeps the request mix the same in every
    run, whatever the seed and however many requests fit in the time.
    """
    result = LoopResult([], [], [], Outcome())
    deadline = perf_counter() + seconds
    for cycle in cycles:
        for req in cycle:
            _one_request(workload, ctx, req, tracer, result)
        if perf_counter() >= deadline and len(result.times) >= MIN_REQUESTS:
            return result


def _one_request(workload, ctx, req, tracer, result) -> None:
    if tracer is not None:
        tracer.request_id = len(result.times)
        tracer.active = True
    start = perf_counter()
    try:
        with tracer.span("bench.request") if tracer is not None else nullcontext():
            out = workload.execute(ctx, req)
    except Exception as exc:  # a failed request is counted, not fatal
        traceback.print_exc()
        out = exc
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    result.times.append(elapsed)
    result.requests.append(req)
    if tracer is not None and (
        len(result.outputs) < 3 or sum(result.times[: len(result.outputs)]) < RERUN_SECONDS
    ):
        result.outputs.append(out)
    result.outcome.add(workload.check(ctx, req, out))


def tail(times: list[float]) -> tuple[float, float]:
    """Highest-percentile sample with 10 samples beyond it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# one run


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, env: dict):
    """One benchmark run; returns (result line, detail record)."""
    workload = WORKLOADS[name]
    bundled = (root / "src" / "rovib" / "data" / "molecules.txt").read_text()
    table = tablegen.generate(seed, bundled)
    work = root / "perfbench" / "work"
    work.mkdir(exist_ok=True)
    table_path = work / f"table-{name}-seed{seed}.txt"
    table_path.write_text(table)
    try:
        ctx = Context(
            table_path=table_path,
            db=database.load_database(table_path),
            reference=load_reference(root),
            env=env,
            check_rng=random.Random(f"{seed}/checks"),
        )
        return _run(workload, ctx, seed, seconds, trace, table)
    finally:
        table_path.unlink()


def _run(workload, ctx, seed, seconds, trace, table):
    setup = [] if trace else measure_setup(ctx)
    residuals = reference_residuals(ctx)
    oracle_errors = oracle_j0_errors(ctx)
    checks = Outcome(
        ops=len(residuals) + len(oracle_errors),
        failed=sum(not r <= REF_TOL_CM1 for r in residuals)
        + sum(not e <= ORACLE_J0_TOL_CM1 for e in oracle_errors),
    )
    if checks.failed:
        _fail(f"{checks.failed} reference or oracle entries outside tolerance")

    workload.warm_up(ctx)
    cycles = workload.cycles(random.Random(f"{seed}/requests"), ctx)
    tracer = None
    if trace:
        ctx.traced = True
        tracer = spans.Tracer()
        tracer.install()
    loop = closed_loop(workload, ctx, cycles, seconds, tracer)
    checks.add(loop.outcome)
    tail_s, tail_pct = tail(loop.times)
    detail = {
        "seed": seed,
        "table": table,
        "n_requests": len(loop.times),
        "tail_percentile": tail_pct,
        "requests": loop.requests,
        "request_times_s": loop.times,
        "setup_samples_s": setup,
    }
    if trace:
        metrics, same = _traced_metrics(workload, ctx, loop, tracer, detail)
        checks.failed += 0 if same else 1
    else:
        who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
        metrics = {
            "request_p50_s": (statistics.median(loop.times), "s"),
            "request_tail_s": (tail_s, "s"),
            "levels_per_s": (loop.outcome.levels / sum(loop.times), "1/s"),
            "success_frac": (1.0 - checks.failed / checks.ops, "ratio"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
            "max_ref_residual_cm1": (max(residuals), "cm-1"),
            "max_oracle_err_cm1": (max(oracle_errors), "cm-1"),
            "setup_s": (statistics.median(setup), "s"),
        }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.ops,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def _traced_metrics(workload, ctx, loop, tracer, detail):
    """Per-layer metrics of a traced loop, and whether a rerun without
    spans gives the same outputs."""
    tracer.uninstall()
    ctx.traced = False
    rerun_times, same = [], True
    for req, traced_out in zip(loop.requests, loop.outputs):
        start = perf_counter()
        try:
            out = workload.execute(ctx, req)
        except Exception as exc:
            out = exc
        rerun_times.append(perf_counter() - start)
        if isinstance(out, Exception) or out != traced_out:
            same = False
            _fail(f"traced and untraced outputs differ for {req}")
    traced_time = sum(loop.times[: len(rerun_times)])
    summary = spans.merge([tracer.summary(), *ctx.child_summaries])

    load_tracer = spans.Tracer()
    load_tracer.install(b for b in spans.BOUNDARIES if b[2] == "database.load")
    load_tracer.active = True
    for _ in range(LOAD_PROBES):
        database.load_database(ctx.table_path)
    load_tracer.uninstall()
    load = load_tracer.summary()
    imports = measure_imports(ctx)

    metrics = layer_metrics(summary, len(loop.times))
    metrics.update({
        "cli.import_s": (imports["rovib"], "s"),
        "cli.import_scipy_s": (imports["scipy"], "s"),
        "database.load_s": (_mean(load["spans"].get("database.load"), "total_s"), "s"),
        "trace.overhead_s": ((traced_time - sum(rerun_times)) / len(rerun_times), "s"),
        "trace.overhead_frac": (traced_time / sum(rerun_times) - 1.0, "ratio"),
        "trace.absent": (float(len(set(summary["absent"] + load["absent"]))), "count"),
    })
    detail.update(layers=summary, rerun_times_s=rerun_times, traced_equals_untraced=same)
    return metrics, same


LAYERS = ("database", "potentials", "rotational", "spectrum", "oracle", "cli")


def _mean(stats, key) -> float:
    return stats[key] / stats["calls"] if stats and stats["calls"] else 0.0


def layer_metrics(summary, n_requests: int) -> dict[str, tuple[float, str]]:
    """Per-layer self time and counts per request, and per-call timings."""
    by_name = summary["spans"]
    counters = summary["counters"]
    metrics = {}
    for layer in LAYERS:
        mine = [s for label, s in by_name.items() if label.partition(".")[0] == layer]
        metrics[f"{layer}.self_s"] = (sum(s["self_s"] for s in mine) / n_requests, "s")
        metrics[f"{layer}.calls"] = (sum(s["calls"] for s in mine) / n_requests, "count")
    for metric, label in (
        ("potentials.derive_us", "potentials.derive"),
        ("potentials.to_pform_us", "potentials.to_pform"),
        ("rotational.badawi_us", "rotational.badawi"),
        ("rotational.effective_us", "rotational.effective"),
        ("spectrum.energy_us", "spectrum.energy"),
    ):
        metrics[metric] = (_mean(by_name.get(label), "self_s") * 1e6, "us")
    level = by_name.get("spectrum.level", {"calls": 0, "errors": 0})
    eigensolve = by_name.get("oracle.eigensolve")
    converge = by_name.get("oracle.converge")
    metrics.update({
        "spectrum.level_calls": (level["calls"] / n_requests, "count"),
        "spectrum.bound_ratio": (
            counters.get("spectrum.bound", 0.0) / level["calls"] if level["calls"] else 0.0,
            "ratio",
        ),
        "spectrum.failures": (float(level["errors"]), "count"),
        "potentials.evaluate_s": (_mean(by_name.get("potentials.evaluate"), "total_s"), "s"),
        "oracle.eigensolve_s": (_mean(eigensolve, "total_s"), "s"),
        "oracle.eigensolves": ((eigensolve or {"calls": 0})["calls"] / n_requests, "count"),
        "oracle.grid_points_solved": (
            counters.get("oracle.grid_points_solved", 0.0) / n_requests, "count"
        ),
        "oracle.converge_s": (_mean(converge, "total_s"), "s"),
        "oracle.converge_points_fine": (
            counters.get("oracle.converge_points_fine", 0.0) / converge["calls"]
            if converge and converge["calls"] else 0.0,
            "count",
        ),
        "trace.spans": (summary["span_count"] / n_requests, "count"),
    })
    return metrics
