"""Interval integrals of callable-backed functions, which no CLI experiment
reaches: maximal_hl of an indicator, lp_norm of a bump mixture and
bmo_norm of a smooth bump, at lambda = 1 and 2.5.

    python e2e/callable_f.py OUT

writes one CSV row per value to OUT, each float as its repr, which shows
every bit.
"""

import sys

import numpy as np

from besseldt.functions import bump_mixture, indicator, smooth_bump
from besseldt.measure import LambdaSpace, bmo_norm, dyadic_family, lp_norm
from besseldt.transform import default_radius_grid, maximal_hl


def main(out: str) -> None:
    rows = []
    for lam in (1.0, 2.5):
        space = LambdaSpace(lam)
        hl = maximal_hl(space, indicator(1.07), 2.0, default_radius_grid(),
                        np.geomspace(1e-2, 1e2, 6))
        rows += [("maximal_hl", lam, i, v) for i, v in enumerate(hl.tolist())]
        rows.append(("lp_norm", lam, 0, lp_norm(
            space, bump_mixture(np.random.default_rng(0)), 2.0)))
        rows.append(("bmo_norm", lam, 0, bmo_norm(
            space, smooth_bump(1.5, 0.6), *dyadic_family())))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("quantity,lambda,index,value\n")
        for quantity, lam, i, v in rows:
            fh.write(f"{quantity},{lam!r},{i},{float(v)!r}\n")


if __name__ == "__main__":
    main(sys.argv[1])
