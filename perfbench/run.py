#!/usr/bin/env python3
"""The sigbasis benchmark: one closed-loop client, one thread, one process.

    python3 perfbench/run.py --workload katsura7-gf --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  A
run repeats passes over the workload's cases while the next pass still fits
in ``--seconds``.  Each pass re-imports ``sigbasis``, parses the problem texts
and builds the prebases (timed as set-up), then runs every case one after
another (timed as ``solve_s`` / ``command_s``), then checks every output
against the stored oracle reference outside the timed region.  Times are
reported in reference seconds (see probe.py) as medians over passes.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate,
and the per-layer metrics of the traced passes are printed instead (see
layers.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from cases import REFERENCES, WORKLOADS, dense_seed, workload_cases  # noqa: E402
from layers import Tracer  # noqa: E402
from probe import SpeedProbe  # noqa: E402

COUNTERS = ("iterations", "insertions", "zero_reductions", "reduction_steps",
            "peak_queue", "basis_size")
EMIT_SUFFIX = {"--emit-json": ".json", "--emit-trace": ".jsonl", "--emit-dot": ".dot"}
SUBMODULES = ("monomials", "algebra", "sigcore", "critical", "engine", "verify",
              "textio", "cli")


class OperationFailed(Exception):
    """An operation raised, or a command exited with an unexpected code."""


def load_sigbasis() -> SimpleNamespace:
    """Import (again) the package from the checkout's ``src/`` directory."""
    for name in [m for m in sys.modules if m == "sigbasis" or m.startswith("sigbasis.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sb = SimpleNamespace(package=importlib.import_module("sigbasis"))
    for name in SUBMODULES:
        setattr(sb, name, importlib.import_module(f"sigbasis.{name}"))
    if Path(sb.package.__file__).resolve().parent != SRC / "sigbasis":
        raise ImportError(f"sigbasis was imported from {sb.package.__file__}, not {SRC}")
    return sb


def backend_name(sb) -> str:
    """The rational type that ``sigbasis.algebra`` resolved."""
    t = type(sb.algebra.RationalField().one)
    return f"{t.__module__}.{t.__qualname__}"


@dataclass
class Prepared:
    case: object
    ctx: object
    gens: list
    prebasis: object = None
    strategy: object = None
    argv: list = field(default_factory=list)
    json_path: Path | None = None


def prepare(sb, case, outdir: Path) -> Prepared:
    """Parse the problem and build what the operation needs (set-up)."""
    text = case.text or (ROOT / case.input_path).read_text()
    spec = sb.cli.parse_problem(text)
    ctx = spec.build_context()
    gens = spec.build_generators(ctx)
    prep = Prepared(case, ctx, gens)
    if case.input_path:
        prep.argv = ["run", str(ROOT / case.input_path)]
        for flag in case.flags:
            prep.argv.append(flag)
            if flag in EMIT_SUFFIX:
                path = outdir / (case.key + EMIT_SUFFIX[flag])
                prep.argv.append(str(path))
                if flag == "--emit-json":
                    prep.json_path = path
        return prep
    make = {"shifted": sb.sigcore.make_prebasis_shifted,
            "unshifted": sb.sigcore.make_prebasis_unshifted}[spec.sig_init]
    prep.prebasis = make(gens, spec.sig_order)
    S = sb.engine.Strategy
    prep.strategy = {"in-order": S.in_order, "min-lm": S.min_lm, "f5": S.f5,
                     "f5-pruned": S.f5_pruned,
                     "f4": lambda: S.f4(4)}[case.strategy]()
    return prep


def execute(sb, prep: Prepared):
    """Run one operation; returns what the checks need, untouched."""
    if not prep.argv:
        return sb.engine.run(prep.prebasis, prep.strategy)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sb.cli.main(prep.argv)
    if code != 0:
        raise OperationFailed(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(prep.json_path.read_text())


def outcome(sb, prep: Prepared, raw):
    """Leading monomials of the nonzero parts, and the run's counters."""
    if not prep.argv:
        parts = [m.part for m in raw.basis.members]
        stats = raw.stats
        counters = {k: getattr(stats, k) for k in COUNTERS[:-1]}
    else:
        parts = [sb.textio.parse_sigpair_text(t, prep.ctx)[0] for t in raw["basis"]]
        counters = {k: raw["stats"][k] for k in COUNTERS[:-1]}
    counters["basis_size"] = len(parts)
    return {p.lm for p in parts if not p.is_zero}, counters


@dataclass
class Pass:
    setup_s: float  # reference seconds (see probe.py)
    solve_s: float
    command_s: float
    raw_s: dict  # the same intervals in plain wall seconds
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    layers: dict | None = None


def run_pass(cases, refs, outdir: Path, traced: bool, log) -> Pass:
    gc.collect()
    wall0 = time.perf_counter()
    with SpeedProbe() as probe:
        tracer = Tracer(probe.clock) if traced else None
        mark = probe.mark()
        sb = load_sigbasis()
        if tracer is not None:
            tracer.install(sb)
        preps = [prepare(sb, c, outdir) for c in cases]
        setup = probe.elapsed(mark)

        solve = [0.0, 0.0]
        engine_run = sb.cli.run

        def add_solve(start):
            reference, raw = probe.elapsed(start)
            solve[0] += reference
            solve[1] += raw

        def timed_cli_run(*args, **kwargs):
            start = probe.mark()
            try:
                return engine_run(*args, **kwargs)
            finally:
                add_solve(start)

        sb.cli.run = timed_cli_run
        raws = []
        mark = probe.mark()
        for prep in preps:
            start = probe.mark()
            try:
                raws.append(execute(sb, prep))
            except Exception as exc:  # a failed operation is counted, not fatal
                raws.append(exc)
            if not prep.argv:
                add_solve(start)
        command = probe.elapsed(mark)
    if tracer is not None:
        tracer.uninstall()
    p = Pass(setup[0], solve[0], command[0],
             {"setup_s": setup[1], "solve_s": solve[1], "command_s": command[1]})
    if tracer is not None:
        p.layers = tracer.metrics(command[0] / command[1])
    for prep, raw in zip(preps, raws):
        check(sb, prep, raw, refs[prep.case.key], p, log)
    p.wall_s = time.perf_counter() - wall0
    return p


def check(sb, prep: Prepared, raw, ref, p: Pass, log):
    """Compare one output with its oracle reference and recorded counters."""
    key = prep.case.key
    p.attempted += 1
    if isinstance(raw, Exception):
        p.failed += 1
        p.unexpected.append(f"{key}: {type(raw).__name__}: {raw}")
        return
    lms, counters = outcome(sb, prep, raw)
    variables = prep.ctx.variables
    oracle = {sb.textio.parse_monomial(t, variables) for t in ref["oracle_lm"]}
    if not sb.verify.lm_ideal_equal(lms, oracle, prep.ctx.monoid):
        p.failed += 1
        rendered = sorted(sb.textio.render_monomial(m, variables) for m in lms)
        if rendered != ref.get("known_wrong_lm"):
            p.unexpected.append(f"{key}: leading monomials {rendered} differ from the oracle")
    diff = [f"{k} {counters[k]} != {ref['counters'][k]}"
            for k in COUNTERS if counters[k] != ref["counters"][k]]
    if diff:
        log(f"counters differ on {key}: " + ", ".join(diff))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        sb = load_sigbasis()
    except ImportError as exc:
        print(f"error: cannot import sigbasis from {SRC}: {exc}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text())
    backend = backend_name(sb)
    if backend != refs["environment"]["backend"]:
        print(f"error: references were recorded with {refs['environment']['backend']}, "
              f"this run resolves {backend}; results are not comparable across "
              "rational backends (regenerate with: " + refs["regenerate"] + ")",
              file=sys.stderr)
        return 3
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "backend": backend, "workload": args.workload, "seed": args.seed}
    if args.workload == "dense-q":
        env["dense_seed"] = dense_seed(args.seed)
    print(json.dumps({"env": env}))

    cases = workload_cases(args.workload, args.seed)
    notes = []

    def log(line):
        if line not in notes:
            notes.append(line)
            print(line)

    passes = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            p = run_pass(cases, refs["cases"], Path(tmp), traced, log)
            passes.append(p)
            for line in p.unexpected:
                log(f"unexpected failure: {line}")
            if args.trace == 1 and len(passes) < 2:
                continue
            if time.perf_counter() - start + p.wall_s > args.seconds:
                break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not any(p.unexpected for p in passes)
    plain = [p for p in passes if p.layers is None]

    median = statistics.median

    def timed(name, group):
        return median([getattr(p, name) for p in group])

    print(json.dumps({"passes": len(passes), "raw_wall_s": {
        name: median([p.raw_s[name] for p in plain])
        for name in ("setup_s", "solve_s", "command_s")}}))
    if args.trace == 0:
        metrics = {
            "solve_s": (timed("solve_s", plain), "s"),
            "command_s": (timed("command_s", plain), "s"),
            "setup_s": (timed("setup_s", plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        traced = [p for p in passes if p.layers is not None]
        metrics = {name: (median([p.layers[name][0] for p in traced]), unit)
                   for name, (_, unit) in traced[0].layers.items()}
        traced_s = timed("command_s", traced)
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_ratio"] = (traced_s / timed("command_s", plain) - 1, "ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
