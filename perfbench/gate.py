"""Correctness gate: a pass's outputs against the reference outputs recorded
from the seed commit."""

from __future__ import annotations

import json
import math
from pathlib import Path

#: relative drift allowed against the reference; QuadratureSpec.rel_tol is
#: 1e-8 and a change of kernel evaluator moves outputs by about 3e-11
RTOL = 1e-7

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def drift(reference: dict, values: dict) -> list:
    """Messages for every output that differs from the reference.

    Numbers match when |got - want| <= RTOL * (|want| + scale), where scale
    is the largest magnitude in the same output list, so entries near zero
    are judged on the scale of their list.  Strings must match exactly."""
    msgs = []
    if set(reference) != set(values):
        return [f"outputs {sorted(values)} differ from reference "
                f"{sorted(reference)}"]
    for name, want in reference.items():
        got = values[name]
        if len(got) != len(want):
            msgs.append(f"{name}: {len(got)} entries, reference has "
                        f"{len(want)}")
            continue
        nums = [abs(w) for w in want if isinstance(w, (int, float))
                and math.isfinite(w)]
        scale = max(nums, default=0.0)
        for i, (g, w) in enumerate(zip(got, want)):
            if isinstance(w, str) or isinstance(g, str):
                ok = g == w
            elif not math.isfinite(w):
                ok = g == w or (math.isnan(w) and math.isnan(g))
            else:
                ok = abs(g - w) <= RTOL * (abs(w) + scale)
            if not ok:
                msgs.append(f"{name}[{i}]: {g!r}, reference {w!r}")
                break
    return msgs
