"""Problem files, flags, and orchestration of engine plus verification.

Problem file format (line oriented, ``#`` comments allowed)::

    vars: y x            # first listed = smallest
    order: degrevlex
    field: Q             # or: GF 32003
    setting: ring        # or: module rank=2 order=pot
                         # or: monoid degmin=2 [exclude=m1,m2]
                         # or: monoid generated=x^2,x*y,y^2
    sig_order: top       # optional, default top
    sig_init: shifted    # optional, default shifted
    gens:
    x^2*y^2 - 1
    y^5 - x^2*y

Every line holding a ``:`` is a header line, each key at most once; the
other lines belong to the last ``gens:`` or ``gens2:`` block above them.

Exit codes: 0 success, 1 usage or parse error, 2 certificate or verification
failure, 3 limit breach.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, field, replace

from .algebra import Context, PrimeField, RationalField
from .engine import (
    Strategy,
    export_dot,
    run,
    tree_signature_consistent,
    validate_sigtree,
)
from .errors import (
    CertificateError,
    ContractError,
    LimitExceeded,
    ParseError,
    SigbasisError,
    StructureError,
)
from .monomials import ModuleOrder, MonoidSpec, ScalarOrder
from .sigcore import (
    dominated_members,
    make_prebasis_shifted,
    make_prebasis_sum,
    make_prebasis_unshifted,
)
from .systems import builtin_problem
from .textio import (
    parse_element,
    parse_monomial,
    render_element,
    render_monomial,
    render_sigpair,
)
from .verify import (
    bounded_signature_basis_check,
    bounded_syzygy_check,
    buchberger,
    is_groebner_basis,
    lm_ideal_equal,
)

__all__ = ["ProblemSpec", "parse_problem", "main"]

_VAR_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem declaration; generators kept as written, to be read in
    the context the spec builds (so ``field`` may still be replaced).

    ``generators2`` holds a ``gens2:`` block: the second summand for the
    ``sum`` initialization, joined to the first block by the others.
    """

    variables: tuple[str, ...]
    order: str = "degrevlex"
    field: str = "q"
    setting: str = "ring"
    generators: tuple[str, ...] = ()
    sig_order: str = "top"
    sig_init: str = "shifted"
    generators2: tuple[str, ...] = ()

    def build_field(self):
        if self.field == "q":
            return RationalField()
        return PrimeField(int(self.field.split(":", 1)[1]))

    def build_context(self) -> Context:
        fld = self.build_field()
        scalar = ScalarOrder(self.order, self.variables)
        kind = self.setting.split()[0]
        opts = _setting_options(self.setting, _SETTING_OPTIONS[kind])
        monoid = MonoidSpec.full()
        order = scalar
        if kind == "module":
            order = ModuleOrder(scalar, opts.get("order", "pot"), _int_option(opts, "rank"))
        elif kind == "monoid":
            monoid = _parse_monoid_setting(opts, self.variables)
        return Context(self.variables, order, monoid, fld)

    def build_generators(self, ctx: Context):
        return [parse_element(text, ctx) for text in self.generators]


_SETTING_OPTIONS = {
    "ring": (),
    "module": ("rank", "order"),
    "monoid": ("degmin", "exclude", "generated"),
}


def _setting_options(setting: str, allowed) -> dict:
    out = {}
    for token in setting.split()[1:]:
        if "=" not in token:
            raise ParseError(f"malformed setting option {token!r}")
        k, v = token.split("=", 1)
        if k not in allowed:
            raise ParseError(f"unknown option {k!r} in setting {setting!r}")
        out[k] = v
    return out


def _int_option(opts: dict, key: str) -> int:
    text = opts.get(key)
    if text is None or not (text.isascii() and text.isdigit()):
        raise ParseError(f"setting needs {key}= with a non-negative integer, got {text!r}")
    return int(text)


def _parse_monoid_setting(opts: dict, variables) -> MonoidSpec:
    if "degmin" in opts and "generated" not in opts:
        exclusions = []
        for text in filter(None, opts.get("exclude", "").split(",")):
            exclusions.append(parse_monomial(text, variables).exps)
        return MonoidSpec.degree_truncated(_int_option(opts, "degmin"), exclusions)
    if "generated" in opts and len(opts) == 1:
        gens = [
            parse_monomial(text, variables).exps
            for text in opts["generated"].split(",")
        ]
        return MonoidSpec.generated(gens)
    raise ParseError(
        "monoid setting needs either degmin= (with optional exclude=) or generated="
    )


def _parse_field(text: str) -> str:
    """Canonical field spec, ``q`` or ``gf:P``, from ``Q``, ``GF 32003`` or ``gf:32003``.

    Primality of P is checked when the field is built.
    """
    text = text.lower()
    if text == "q":
        return "q"
    if text.startswith("gf"):
        digits = text.replace("gf", "", 1).strip(" :")
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"malformed field {text!r}")
        return f"gf:{digits}"
    raise ParseError(f"unknown field {text!r}")


def parse_problem(text: str, field: str | None = None) -> ProblemSpec:
    """Parse a problem file; generator lines are checked, then kept as written.

    ``field``, a canonical field spec, overrides the file's ``field:`` line,
    and the generator lines are checked in it.
    """
    header = {}
    block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # generator text never holds a colon: a line that does is a header
        if ":" not in line:
            if block is None:
                raise ParseError("expected 'key: value'", lineno, 1)
            block.append((lineno, line))
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key in header:
            raise ParseError(f"duplicate '{key}:' line", lineno, 1)
        if key in ("gens", "gens2"):
            block = header[key] = [(lineno, value)] if value else []
        else:
            header[key] = (lineno, value)
    gen_lines, gen2_lines = header.pop("gens", []), header.pop("gens2", [])

    if "vars" not in header:
        raise ParseError("missing 'vars:' line", 1, 1)
    lineno, names_text = header.pop("vars")
    names = tuple(names_text.split())
    if not names:
        raise ParseError("no variables declared", lineno, 1)
    for name in names:
        if not _VAR_NAME.match(name) or re.fullmatch(r"e_\d+", name):
            raise ParseError(f"bad variable name {name!r}", lineno, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names", lineno, 1)

    def take(key, default):
        if key in header:
            return header.pop(key)[1].lower()
        return default

    order = take("order", "degrevlex")
    if order not in ("degrevlex", "lex"):
        raise ParseError(f"unknown order {order!r}")
    fld = _parse_field(take("field", "q"))
    if field is not None:
        fld = field
    setting = take("setting", "ring")
    if setting.split()[:1] not in (["ring"], ["module"], ["monoid"]):
        raise ParseError(f"unknown setting {setting!r}")
    sig_order = take("sig_order", "top")
    if sig_order not in ("top", "pot"):
        raise ParseError(f"sig_order must be top or pot, got {sig_order!r}")
    sig_init = take("sig_init", "shifted")
    if sig_init not in ("shifted", "unshifted", "sum"):
        raise ParseError(f"unknown sig_init {sig_init!r}")
    if header:
        key = next(iter(header))
        raise ParseError(f"unknown header line {key!r}", header[key][0], 1)

    spec = ProblemSpec(names, order, fld, setting, (), sig_order, sig_init)
    ctx = spec.build_context()

    def validated(lines):
        for lineno, line in lines:
            try:
                parse_element(line, ctx, line=lineno)
            except StructureError as exc:
                raise ParseError(str(exc), lineno, 1) from exc
        return tuple(line for _, line in lines)

    return replace(
        spec,
        generators=validated(gen_lines),
        generators2=validated(gen2_lines),
    )


def _build_prebasis(spec: ProblemSpec, ctx, gens, gens2, deadline: float):
    """Only ``sum`` splits the module that both blocks generate."""
    if spec.sig_init == "shifted":
        return make_prebasis_shifted(gens + gens2, spec.sig_order)
    if spec.sig_init == "unshifted":
        return make_prebasis_unshifted(gens + gens2, spec.sig_order)
    if not gens2:
        raise ParseError("sum initialization needs a 'gens2:' block")
    prebasis = make_prebasis_sum(gens, gens2, spec.sig_order)
    for side, block in (("first", gens), ("second", gens2)):
        if not is_groebner_basis(block, ctx.monoid, deadline=deadline):
            raise ContractError(f"the {side} generator set is not a Groebner basis")
    return prebasis


def _result_json(result, spec: ProblemSpec, variables) -> dict:
    basis = result.basis
    return {
        "config": {
            "strategy": None,  # filled by caller
            "sig_order": spec.sig_order,
            "sig_init": spec.sig_init,
            "field": spec.field,
            "order": spec.order,
            "variables": list(variables),
        },
        "basis": [render_sigpair(m, variables) for m in basis.members],
        "syzygies": sorted(
            render_monomial(s, variables) for s in result.syzygies
        ),
        "redundant_member_ids": dominated_members(basis),
        "stats": asdict(result.stats),
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


_STRATEGY_FLAGS = {
    "in-order": Strategy.in_order,
    "min-lm": Strategy.min_lm,
    "f5": Strategy.f5,
    "f5-pruned": Strategy.f5_pruned,
    "f4": lambda: Strategy.f4(4),
}


def _arg_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sigbasis", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="compute a certified rewrite basis")
    runp.add_argument("file", nargs="?", help="problem file (or use --builtin)")
    runp.add_argument("--builtin", help="builtin system: mora, katsuraN (3<=N<=8)")
    runp.add_argument("--strategy", default="in-order", choices=list(_STRATEGY_FLAGS))
    runp.add_argument("--batch", type=int, default=None, metavar="K",
                      help="f4 batch size (default 4; f4 only)")
    runp.add_argument("--sig-order", choices=["pot", "top"], default=None)
    runp.add_argument("--sig-init", choices=["shifted", "unshifted", "sum"],
                      default=None)
    runp.add_argument("--field", default=None, metavar="{q,gf:P}")
    runp.add_argument("--emit-dot", metavar="PATH")
    runp.add_argument("--emit-trace", metavar="PATH")
    runp.add_argument("--emit-json", metavar="PATH")
    runp.add_argument("--verify", action="store_true",
                      help="certificate + oracle comparison + tree validation")
    runp.add_argument("--verify-deep", type=int, metavar="D", default=None,
                      help="also run bounded span/syzygy checks to degree D")
    runp.add_argument("--max-insertions", type=int, default=10**6)
    runp.add_argument("--max-seconds", type=float, default=300.0)
    runp.add_argument("--debug-invariants", type=int, default=0, metavar="STRIDE",
                      help="assert the queue invariant every STRIDE iterations")
    return p


def _load_problem(args) -> ProblemSpec:
    if args.builtin and args.file:
        raise ParseError("give a file or --builtin, not both")
    field = _parse_field(args.field) if args.field else None
    if args.builtin:
        ctx, gens = builtin_problem(args.builtin)
        spec = ProblemSpec(
            ctx.variables,
            "degrevlex",
            field or "q",
            "ring",
            tuple(render_element(g) for g in gens),
        )
    elif args.file:
        with open(args.file, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_start = data.rfind(b"\n", 0, exc.start) + 1
            raise ParseError(
                f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                data.count(b"\n", 0, exc.start) + 1,
                exc.start - line_start + 1,
            ) from None
        spec = parse_problem(text, field)
    else:
        raise ParseError("no input: give a problem file or --builtin NAME")
    overrides = {}
    if args.sig_order:
        overrides["sig_order"] = args.sig_order
    if args.sig_init:
        overrides["sig_init"] = args.sig_init
    return replace(spec, **overrides) if overrides else spec


def main(argv=None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
        return _run_command(args)
    except (ParseError, SigbasisError) as exc:
        if isinstance(exc, LimitExceeded):
            print(f"limit exceeded: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CertificateError) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _strategy(args) -> Strategy:
    if args.batch is not None and args.strategy != "f4":
        raise ParseError(f"--batch applies to --strategy f4 only, not {args.strategy}")
    strategy = _STRATEGY_FLAGS[args.strategy]()
    return strategy if args.batch is None else replace(strategy, batch_size=args.batch)


def _deadline(args) -> float:
    """Check the limit flags before any input is read; return the deadline
    of the whole command."""
    seconds = args.max_seconds
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ParseError(f"--max-seconds must be finite and >= 0, got {seconds}")
    for flag in ("max_insertions", "debug_invariants", "verify_deep"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise ParseError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    return time.monotonic() + seconds


def _run_command(args) -> int:
    deadline = _deadline(args)
    strategy = _strategy(args)
    spec = _load_problem(args)
    ctx = spec.build_context()
    gens = spec.build_generators(ctx)
    gens2 = [parse_element(t, ctx) for t in spec.generators2]
    prebasis = _build_prebasis(spec, ctx, gens, gens2, deadline)
    # the oracle and the syzygy check read the module the engine ran on
    gens = [m.part for m in prebasis.members]

    with contextlib.ExitStack() as stack:
        sink = None
        if args.emit_trace:
            trace_file = stack.enter_context(open(args.emit_trace, "w", encoding="utf-8"))

            def sink(row):
                trace_file.write(json.dumps(row, sort_keys=True) + "\n")

        try:
            result = run(
                prebasis,
                strategy,
                max_insertions=args.max_insertions,
                deadline=deadline,
                trace=sink,
                debug_invariant_stride=args.debug_invariants,
            )
        except LimitExceeded as exc:
            # a capped run still says how far it got
            if args.emit_json and exc.partial is not None:
                _emit_json(args, strategy, spec, exc.partial, partial=True)
            raise

    print(
        f"basis: {len(result.basis.members)} sigpairs "
        f"({result.stats.zero_reductions} syzygy markers), "
        f"{result.stats.insertions} insertions, "
        f"{result.stats.reduction_steps} reduction steps"
    )

    # the deep checks run first, so a degree bound they refuse costs no oracle
    deep = []
    if args.verify_deep is not None:
        deep_d = args.verify_deep
        sig_report = bounded_signature_basis_check(
            result.basis, deep_d, deadline=deadline
        )
        deep.append(("signature-slices", sig_report.ok))
        if spec.sig_init == "shifted":
            syz_report = bounded_syzygy_check(gens, result, deep_d, deadline=deadline)
            deep.append(("syzygy-cover", syz_report.ok))

    failed = False
    oracle_lms = None
    if args.verify or args.verify_deep is not None:
        # run() certified the basis or raised: the certificate passed
        tree_ok = not validate_sigtree(result.tree, result.basis, deadline=deadline)
        tree_ok = tree_ok and tree_signature_consistent(result.tree)
        gb = buchberger(gens, ctx.monoid, deadline=deadline)
        oracle_lms = gb.lm_set()
        part_lms = {
            m.part.lm for m in result.basis.members if not m.part.is_zero
        }
        lm_ok = lm_ideal_equal(part_lms, oracle_lms, ctx.monoid)
        print(
            "verify: certificate=pass "
            f"tree={'pass' if tree_ok else 'FAIL'} "
            f"oracle-lm-ideal={'pass' if lm_ok else 'FAIL'}"
        )
        failed = not (tree_ok and lm_ok)
    for name, ok in deep:
        print(f"verify-deep: {name}={'pass' if ok else 'FAIL'}")
        failed = failed or not ok

    if args.emit_dot:
        highlight = frozenset(oracle_lms) if oracle_lms else frozenset()
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(result, highlight))
    if args.emit_json:
        _emit_json(args, strategy, spec, result)

    return 2 if failed else 0


def _emit_json(args, strategy: Strategy, spec: ProblemSpec, result, *, partial=False):
    """Write the ``--emit-json`` payload; a partial result of a capped run
    also says ``"certified": false``."""
    payload = _result_json(result, spec, spec.variables)
    payload["config"]["strategy"] = args.strategy
    if args.strategy == "f4":
        payload["config"]["batch"] = strategy.batch_size
    if partial:
        payload["certified"] = False
    with open(args.emit_json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
