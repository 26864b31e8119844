#!/usr/bin/env python3
"""Check that two checkouts behave identically, run by run.

    python3 scripts/compare_runs.py digest ../parent parent.json
    python3 scripts/compare_runs.py digest . change.json
    python3 scripts/compare_runs.py diff parent.json change.json
    python3 scripts/compare_runs.py diff --shape parent.json change.json

``digest`` imports ``sigbasis`` from the checkout's ``src/`` and writes one
JSON entry per configuration:

* ``engine/...``: ``engine.run`` on the acceptance matrix (mora and
  katsura4-6 over Q x {top, pot} x {shifted, unshifted} x five presets, with
  the queue invariant checked at every loop head) and on the benchmark inputs
  in the checkout's ``perfbench/`` (katsura7-gf under f5 and f5-pruned,
  dense-q seeds 1-3 and the three monoid-gf systems under every preset and
  both initializations).  Each entry holds the members as (rendered part,
  rendered leading monomial, rendered signature, id), the ``RunStats``
  counters, every trace row and
  the rendered ``critical_set`` of a new ``SigSet`` of the output's
  members, so the set comes from a search of its own and not from the
  record that the run filled.
* ``cli/...``: ``sigbasis run`` called in-process on ``--builtin`` mora and
  katsura4-6 with every preset (f4 with ``--batch 4``), on the two
  cli-verify commands of the benchmark, and on ``SUM_TEXT``, a two-block
  ``sig_init: sum`` problem that the script writes itself.  Both its blocks
  are Groebner bases, so the command passes the blocks' closure check and
  runs ``--verify``.  ``cli/limits/...`` runs ``--builtin katsura4
  --emit-json`` cut by ``--max-insertions 3`` and by ``--max-seconds 0``, so
  the exit code 3, the limit message and the uncertified partial JSON are
  compared too.  Each entry holds the exit code, stdout, stderr and the
  bytes of every ``--emit-*`` file.
* ``oracle/...``: ``verify.buchberger`` on mora and katsura4-6 over Q,
  katsura6-gf, katsura7-gf, dense-q seeds 1-3 and the three monoid-gf
  systems.  Each entry holds the rendered reduced basis and the
  ``is_groebner_basis`` verdict on it, so a ``0 differ`` diff shows that the
  oracle's output is unchanged term for term, not only its leading monomials.

``diff`` compares two digests entry by entry, prints each entry and field
that differs, and exits 1 if any does.  Timings are never recorded, so two
digests of the same checkout are identical.

``diff --shape`` compares only what a change to the reduction's tails keeps:
each engine entry's members as (leading monomial, signature, id), its
counters except ``reduction_steps``, its trace rows without their ``steps``
and its ``critical_set``; each cli entry's exit code and its ``verify`` and
``verify-deep`` lines; and each oracle entry in full.

Each system's engine configurations run on one parsed context: every run
after its first starts with that context's product table
(``Context.products``) and its generators' cleared rows already filled, so
a ``0 differ`` diff also shows that a warm context changes no output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

PRESETS = ("in-order", "min-lm", "f5", "f5-pruned", "f4")
BUILTINS = ("mora", "katsura4", "katsura5", "katsura6")
DENSE_SEEDS = (1, 2, 3)
MONOID_INPUTS = ("katsura4-degmin2-gf", "katsura4-gen2-gf", "mora-degmin2-gf")
CLI_VERIFY = (
    ("katsura6-gf", ("--strategy", "f5", "--verify", "--emit-json", "--emit-trace",
                     "--emit-dot")),
    ("katsura4-q", ("--strategy", "f5", "--verify-deep", "4", "--emit-json")),
)
LIMITS = (("max-insertions-3", ("--max-insertions", "3")),
          ("max-seconds-0", ("--max-seconds", "0")))
# mora's reduced Groebner basis, and a pair with coprime leading monomials
SUM_TEXT = """vars: y x
sig_init: sum
gens:
y^4 - x^2
x^2*y^2 - 1
x^4 - y^2
gens2:
x^2 - y
y^3 - x
"""
EMIT_SUFFIX = {"--emit-json": ".json", "--emit-trace": ".jsonl", "--emit-dot": ".dot"}


def _import_sigbasis(checkout: Path):
    src = checkout / "src"
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"sigbasis.{name}")
               for name in ("cli", "critical", "engine", "sigcore", "systems", "textio",
                            "verify")}
    loaded = Path(modules["cli"].__file__).resolve().parent
    if loaded != (src / "sigbasis").resolve():
        raise ImportError(f"sigbasis was imported from {loaded}, not {src}")
    return argparse.Namespace(**modules)


def _load_cases(checkout: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_cases", checkout / "perfbench" / "cases.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _strategy(sb, preset: str):
    S = sb.engine.Strategy
    return {"in-order": S.in_order, "min-lm": S.min_lm, "f5": S.f5,
            "f5-pruned": S.f5_pruned, "f4": lambda: S.f4(4)}[preset]()


def _engine_entry(sb, ctx, prebasis, preset: str, stride: int) -> dict:
    rows = []
    render = sb.textio.render_monomial
    variables = ctx.variables
    try:
        result = sb.engine.run(prebasis, _strategy(sb, preset), trace=rows.append,
                               debug_invariant_stride=stride)
        basis = result.basis
        return {
            "members": [[sb.textio.render_element(m.part), render(m.part.lm, variables),
                         render(m.sig, variables), m.id] for m in basis.members],
            "stats": dataclasses.asdict(result.stats),
            "trace": rows,
            "critical_set": sorted(render(s, variables) for s in sb.critical.critical_set(
                sb.sigcore.SigSet(ctx, basis.sig_order, basis.members))),
        }
    except Exception as exc:  # recorded, so both sides can be compared
        return {"error": f"{type(exc).__name__}: {exc}", "trace": rows}


def _engine_runs(sb, cases):
    make = {"shifted": sb.sigcore.make_prebasis_shifted,
            "unshifted": sb.sigcore.make_prebasis_unshifted}
    for system in BUILTINS:
        ctx, gens = sb.systems.builtin_problem(system)
        for sig_order in ("top", "pot"):
            for init in make:
                for preset in PRESETS:
                    key = f"engine/matrix/{system}/{sig_order}/{init}/{preset}"
                    yield key, ctx, make[init](gens, sig_order), preset, 1
    texts = [(f"katsura7-gf/{p}", cases.INPUTS.joinpath("katsura7-gf.sys").read_text(),
              (p,), ("shifted",)) for p in ("f5", "f5-pruned")]
    texts += [(f"dense-q/seed-{s}", cases.dense_text(s), PRESETS, tuple(make))
              for s in DENSE_SEEDS]
    texts += [(name, cases.INPUTS.joinpath(f"{name}.sys").read_text(), PRESETS,
               tuple(make)) for name in MONOID_INPUTS]
    for label, text, presets, inits in texts:
        spec = sb.cli.parse_problem(text)
        ctx = spec.build_context()
        gens = spec.build_generators(ctx)
        for init in inits:
            for preset in presets:
                key = f"engine/bench/{label}/{spec.sig_order}/{init}/{preset}"
                yield key, ctx, make[init](gens, spec.sig_order), preset, 0


def _oracle_runs(sb, cases):
    for system in BUILTINS:
        yield f"oracle/{system}", *sb.systems.builtin_problem(system)
    texts = [(name, cases.INPUTS.joinpath(f"{name}.sys").read_text())
             for name in ("katsura6-gf", "katsura7-gf", *MONOID_INPUTS)]
    texts += [(f"dense-q/seed-{s}", cases.dense_text(s)) for s in DENSE_SEEDS]
    for label, text in texts:
        spec = sb.cli.parse_problem(text)
        ctx = spec.build_context()
        yield f"oracle/{label}", ctx, spec.build_generators(ctx)


def _oracle_entry(sb, ctx, gens) -> dict:
    try:
        gb = list(sb.verify.buchberger(gens, ctx.monoid))
        return {"basis": [sb.textio.render_element(g) for g in gb],
                "groebner": sb.verify.is_groebner_basis(gb, ctx.monoid)}
    except Exception as exc:  # recorded, so both sides can be compared
        return {"error": f"{type(exc).__name__}: {exc}"}


def _cli_entry(sb, argv, outdir: Path, stem: str) -> dict:
    argv = list(argv)
    paths = {}
    for flag, suffix in EMIT_SUFFIX.items():
        if flag in argv:
            paths[flag] = outdir / (stem + suffix)
            argv.insert(argv.index(flag) + 1, str(paths[flag]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sb.cli.main(argv)
        except Exception as exc:  # a traceback in the real command
            code = f"{type(exc).__name__}: {exc}"
    entry = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    for flag, path in paths.items():
        entry[flag] = path.read_text() if path.exists() else None
    return entry


def _cli_runs(checkout: Path, outdir: Path):
    for system in BUILTINS:
        for preset in PRESETS:
            argv = ["run", "--builtin", system, "--strategy", preset,
                    "--emit-trace", "--emit-json"]
            if preset == "f4":
                argv += ["--batch", "4"]
            yield f"cli/{system}/{preset}", argv
    for name, flags in CLI_VERIFY:
        yield f"cli/verify/{name}", ["run", str(checkout / "perfbench" / "inputs" /
                                               f"{name}.sys"), *flags]
    path = outdir / "sum.sys"
    path.write_text(SUM_TEXT)
    yield "cli/verify/sum", ["run", str(path), "--verify", "--emit-json"]
    for name, flags in LIMITS:
        yield f"cli/limits/{name}", ["run", "--builtin", "katsura4", "--emit-json", *flags]


def digest(checkout: Path, out_path: Path) -> int:
    checkout = checkout.resolve()
    sb = _import_sigbasis(checkout)
    cases = _load_cases(checkout)
    entries = {}
    for key, ctx, prebasis, preset, stride in _engine_runs(sb, cases):
        entries[key] = _engine_entry(sb, ctx, prebasis, preset, stride)
        print(key, file=sys.stderr)
    for key, ctx, gens in _oracle_runs(sb, cases):
        entries[key] = _oracle_entry(sb, ctx, gens)
        print(key, file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in _cli_runs(checkout, Path(tmp)):
            entries[key] = _cli_entry(sb, argv, Path(tmp), key.replace("/", "-"))
            print(key, file=sys.stderr)
    out_path.write_text(json.dumps(entries, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {out_path}", file=sys.stderr)
    return 0


def _first_difference(a, b) -> str:
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return f"first at [{i}]: {x!r} != {y!r}"
        return f"lengths {len(a)} != {len(b)}"
    return f"{a!r} != {b!r}"


def _shape(key: str, entry: dict) -> dict:
    """The fields of an entry that full and top reduction share."""
    if key.startswith("engine/"):
        shape = {k: v for k, v in entry.items() if k in ("error", "critical_set")}
        if "members" in entry:
            shape["members"] = [row[1:] for row in entry["members"]]
        if "stats" in entry:
            shape["stats"] = {k: v for k, v in entry["stats"].items()
                              if k != "reduction_steps"}
        shape["trace"] = [{k: v for k, v in row.items() if k != "steps"}
                          for row in entry["trace"]]
        return shape
    if key.startswith("cli/"):
        return {"exit": entry["exit"],
                "verify": [line for line in entry["stdout"].splitlines()
                           if line.startswith(("verify:", "verify-deep:"))]}
    return entry


def diff(path_a: Path, path_b: Path, shape: bool = False) -> int:
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    if shape:
        a = {key: _shape(key, entry) for key, entry in a.items()}
        b = {key: _shape(key, entry) for key, entry in b.items()}
    differing = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            print(f"{key}: only in {path_a if key in a else path_b}")
            differing += 1
            continue
        if a[key] == b[key]:
            continue
        differing += 1
        for field in sorted(a[key].keys() | b[key].keys()):
            x, y = a[key].get(field), b[key].get(field)
            if x != y:
                print(f"{key} {field}: {_first_difference(x, y)}"[:400])
    total = len(a.keys() | b.keys())
    print(f"{total} entries, {differing} differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    dg = sub.add_parser("digest", help="write the digest of one checkout")
    dg.add_argument("checkout", type=Path)
    dg.add_argument("out", type=Path)
    df = sub.add_parser("diff", help="compare two digests; exit 1 if they differ")
    df.add_argument("--shape", action="store_true",
                    help="compare leading monomials, signatures, ids, counters other than "
                         "reduction_steps, cli verify lines and oracle bases only")
    df.add_argument("a", type=Path)
    df.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "digest":
        return digest(args.checkout, args.out)
    return diff(args.a, args.b, args.shape)


if __name__ == "__main__":
    sys.exit(main())
