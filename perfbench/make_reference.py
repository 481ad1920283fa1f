"""Regenerate ``reference.json``: the r(t) profiles the benchmark gates on.

    python3 perfbench/make_reference.py

Solves each workload's problem once at phase 0 and stores r(t) (and, for
strong coupling, the reconstructed mass at t = 0, 5, 10).  Run it only on
a commit whose results are trusted; the file records that commit's answer.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from kuramoto_dephasing import norms_grids, scheme  # noqa: E402
from workloads import (  # noqa: E402
    EXP16_GRID, EXP_GRID, MU, POLY_GRID, REFERENCE_FILE, STRONG_A1, STRONG_MU,
    _exp_state, _poly_state,
)


def _solve(state, grid_kw, mu):
    return scheme.outer_solve(state, norms_grids.build_grid(state.profile, **grid_kw), mu)


def main():
    ref = {}
    for name, state, grid_kw, mu in (
        ("exp_ref", _exp_state(0.05), EXP_GRID, MU),
        ("poly_ref", _poly_state(0.05), POLY_GRID, MU),
        ("strong_coupling", _exp_state(STRONG_A1), EXP16_GRID, STRONG_MU),
    ):
        res = _solve(state, grid_kw, mu)
        ref[name] = {"r": res.path.r().tolist()}
        if name == "strong_coupling":
            ref[name]["mass"] = scheme.reconstruct(res).mass.tolist()
        print(name, res.n_outer, "outer iterates", flush=True)
    REFERENCE_FILE.write_text(json.dumps(ref) + "\n")


if __name__ == "__main__":
    main()
