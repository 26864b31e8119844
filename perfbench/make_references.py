#!/usr/bin/env python3
"""Regenerate perfbench/references.json: oracle references and counters.

    python3 perfbench/make_references.py            # every case (about 6 min)
    python3 perfbench/make_references.py KEY ...    # only the named cases

For every case of every workload, and for dense-q for every stored seed, this
computes the reduced Groebner basis with the independent oracle
``sigbasis.verify.buchberger`` and stores its leading monomials.  It also runs
the case once and stores the engine's counters, which a later run must
reproduce exactly.  The oracle runs only here, never in a timed run.  A case
whose engine output is not lm-ideal-equal to the oracle is recorded with its
wrong leading monomials as ``known_wrong_lm``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import DENSE_SEEDS, REFERENCES, WORKLOADS, workload_cases  # noqa: E402
from run import ROOT, backend_name, execute, load_sigbasis, outcome, prepare  # noqa: E402


def all_cases():
    seen = {}
    for workload in WORKLOADS:
        seeds = DENSE_SEEDS if workload == "dense-q" else (DENSE_SEEDS[0],)
        for seed in seeds:
            for case in workload_cases(workload, seed):
                seen.setdefault(case.key, case)
    return list(seen.values())


def reference(sb, case, outdir: Path) -> dict:
    prep = prepare(sb, case, outdir)
    variables = prep.ctx.variables
    render = sb.textio.render_monomial
    lms, counters = outcome(sb, prep, execute(sb, prep))
    start = time.perf_counter()
    gb = sb.verify.buchberger(prep.gens, prep.ctx.monoid)
    oracle_s = time.perf_counter() - start
    counters["oracle_basis_size"] = len(gb)
    ref = {
        "oracle_lm": sorted(render(m, variables) for m in gb.lm_set()),
        "counters": counters,
        "oracle_seconds": round(oracle_s, 1),
    }
    if not sb.verify.lm_ideal_equal(lms, gb.lm_set(), prep.ctx.monoid):
        ref["known_wrong_lm"] = sorted(render(m, variables) for m in lms)
    return ref


def main(keys) -> int:
    sb = load_sigbasis()
    old = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {"cases": {}}
    cases = [c for c in all_cases() if not keys or c.key in keys]
    refs = dict(old["cases"])
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for case in cases:
            refs[case.key] = reference(sb, case, Path(tmp))
            ref = refs[case.key]
            print(f"{case.key}: {ref['counters']} oracle {ref['oracle_seconds']} s"
                  + (" KNOWN WRONG" if "known_wrong_lm" in ref else ""), flush=True)
    payload = {
        "regenerate": "python3 perfbench/make_references.py",
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "backend": backend_name(sb),
        },
        "cases": dict(sorted(refs.items())),
    }
    REFERENCES.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
