"""Workloads of the sigbasis benchmark and the inputs they run.

A workload is a list of cases run one after another by one client.  A case
is either an engine case (a problem text solved with ``engine.run``) or a CLI
case (one ``sigbasis run`` command, called in-process).  Every case has a key
into ``references.json``, which holds its oracle reference and its counters.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
REFERENCES = HERE / "references.json"

# dense-q inputs whose oracle reference is stored; --seed picks one of them.
DENSE_SEEDS = tuple(range(1, 13))
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Case:
    key: str
    text: str = ""  # problem text (engine cases)
    strategy: str = ""  # CLI strategy name, e.g. "f5-pruned" (engine cases)
    input_path: str = ""  # problem file relative to the checkout (CLI cases)
    flags: tuple[str, ...] = ()  # CLI flags; the benchmark adds the --emit-* paths


def dense_seed(seed: int) -> int:
    """The stored dense-q input that the benchmark seed selects."""
    return DENSE_SEEDS[(seed - 1) % len(DENSE_SEEDS)]


def dense_text(seed: int, nvars: int = 5) -> str:
    """Random dense quadratic system over Q: every monomial of degree <= 2 in
    every equation, integer coefficients in [-9, 9] with 0 replaced by 1."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(1, nvars + 1)]
    monomials = [
        "*".join(names[i] for i in combo) or "1"
        for degree in (2, 1, 0)
        for combo in itertools.combinations_with_replacement(range(nvars), degree)
    ]
    gens = []
    for _ in range(nvars):
        terms = " + ".join(f"{rng.randint(-9, 9) or 1}*{m}" for m in monomials)
        gens.append(terms.replace("+ -", "- "))
    header = [
        f"vars: {' '.join(names)}",
        "order: degrevlex",
        "field: Q",
        "setting: ring",
        "sig_order: top",
        "sig_init: unshifted",
        "gens:",
    ]
    return "\n".join(header + gens) + "\n"


def _file_case(key: str, strategy: str) -> Case:
    return Case(key, text=(INPUTS / f"{key}.sys").read_text(), strategy=strategy)


def _cli_case(key: str, *flags: str) -> Case:
    return Case(key, input_path=f"perfbench/inputs/{key}.sys", flags=flags)


def workload_cases(workload: str, seed: int = DEFAULT_SEED) -> list[Case]:
    if workload == "katsura7-gf":
        return [_file_case("katsura7-gf", "f5-pruned")]
    if workload == "dense-q":
        s = dense_seed(seed)
        return [Case(f"dense-q/seed-{s}", text=dense_text(s), strategy="f4")]
    if workload == "monoid-gf":
        return [
            _file_case("katsura4-degmin2-gf", "f5"),
            _file_case("katsura4-gen2-gf", "min-lm"),
            # Known wrong answer: the engine certifies a basis missing x^4 and
            # y^4.  It stays here so the defect shows in every run.
            _file_case("mora-degmin2-gf", "f5"),
        ]
    if workload == "cli-verify":
        return [
            _cli_case("katsura6-gf", "--strategy", "f5", "--verify", "--emit-json",
                      "--emit-trace", "--emit-dot"),
            _cli_case("katsura4-q", "--strategy", "f5", "--verify-deep", "4",
                      "--emit-json"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("katsura7-gf", "dense-q", "monoid-gf", "cli-verify")
