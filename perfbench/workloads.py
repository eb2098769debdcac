"""The benchmark's workloads: three problem specs, generated from a seed.

Seed 0 gives the three problems exactly as documented in NOTES.md.  Any
other seed multiplies every perturbation's amplitude by a factor drawn from
[1 - AMPLITUDE_BAND, 1 + AMPLITUDE_BAND] and its decay rate by a factor from
[1 - RATE_BAND, 1 + RATE_BAND], independently per perturbation.  The band
is narrow enough that every check of the report still passes and the work
per call stays close to the seed-0 work (see NOTES.md).
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np

AMPLITUDE_BAND = 0.10
RATE_BAND = 0.05

# name -> the four perturbations r0..r3 as (amplitude, decay rate) or None;
# NOTES.md says why each workload is in the benchmark
WORKLOADS = {
    "standard": ((0.001, 1.0), None, None, None),
    "hard": ((0.002, 1.3), (0.001, 1.0), (-0.003, 2.0), (0.001, 0.7)),
    "biharmonic-fine": ((0.001, 1.0), None, None, None),
}
_HARD_ROOTS = (5.0, 1.0, -2.0, -6.0)


def _expr(amplitude, rate):
    if rate == 1.0:
        return f"{amplitude!r}*exp(-t)"
    return f"{amplitude!r}*exp(-{rate!r}*t)"


def perturbations(name: str, seed: int):
    """The four (amplitude, rate) pairs (or None) of a workload at a seed."""
    base = WORKLOADS[name]
    if seed == 0:
        return base
    rng = random.Random(f"{name}:{seed}")
    out = []
    for pair in base:
        if pair is None:
            out.append(None)
            continue
        amplitude, rate = pair
        amplitude *= 1.0 + rng.uniform(-AMPLITUDE_BAND, AMPLITUDE_BAND)
        rate *= 1.0 + rng.uniform(-RATE_BAND, RATE_BAND)
        out.append((amplitude, rate))
    return tuple(out)


def build_spec(name: str, seed: int):
    """The ProblemSpec of workload `name` at `seed` (library defaults
    everywhere else)."""
    from riccati4.problem import ProblemSpec, biharmonic_preset

    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    r = tuple("0" if pair is None else _expr(*pair)
              for pair in perturbations(name, seed))
    fields = dict(zip(("r0", "r1", "r2", "r3"), r))
    if name == "standard":
        spec = ProblemSpec(a3=0.0, a2=-5.0, a1=0.0, a0=4.0, **fields)
    elif name == "hard":
        a3, a2, a1, a0 = (float(c) for c in np.poly(_HARD_ROOTS)[1:])
        spec = ProblemSpec(a3=a3, a2=a2, a1=a1, a0=a0, nodes=768, t_max=40.0,
                           **fields)
    else:
        spec = replace(biharmonic_preset(6, 6), t_max=30.0, nodes=8192, **fields)
    return spec.validate()
