"""Priority weights (the paper's Equations 3–5).

Aladdin distinguishes priorities by *weighting* the flow a container
pushes: the weighted flow ``w_k · f(i,j)`` of any higher-priority
container must exceed the weighted flow of any lower-priority one, which
is what makes the maximum-flow objective (Equation 9) prefer — and never
preempt — high-priority containers.

Equation 3 partitions containers into priority classes ``x(i)``;
Equation 4 fixes ``w_1 = 1`` for the lowest class; Equation 5 requires

    w_{i+1} · min_demand(x(i+1))  >  w_i · max_demand(x(i))

so each class's weakest member outweighs the previous class's strongest.
The evaluation additionally sweeps a floor on the ratio — "we set the
priority w_n to 16, 32, 64, 128 according to Equation 4 (the maximum
resource requirement for one application is 16 CPUs)" — which we expose
as ``base``: each derived ratio is at least ``base``.
"""

from __future__ import annotations

import math

from repro.cluster.container import Application


def classify_by_priority(
    apps: list[Application],
) -> dict[int, list[Application]]:
    """Equation 3: partition applications into priority classes."""
    classes: dict[int, list[Application]] = {}
    for app in apps:
        classes.setdefault(app.priority, []).append(app)
    return classes


def derive_priority_weights(
    apps,
    base: float = 16.0,
    dim: str = "cpu",
) -> dict[int, float]:
    """Derive one weight per priority class present in ``apps``.

    Parameters
    ----------
    apps:
        The workload: anything with a ``priority`` and a ``dim`` demand
        (applications, or the scheduler's block-head containers); the
        demands along ``dim`` bound the required ratios.
    base:
        Floor on the class-to-class weight ratio (the paper's 16/32/64/128
        sweep).  Any value satisfying Equation 5 avoids priority
        inversions; larger values only change the absolute objective.
    dim:
        Resource dimension whose demand range drives Equation 5.

    Returns
    -------
    Mapping priority class → weight, with the lowest class at 1.0.
    """
    if base < 1.0:
        raise ValueError(f"base must be >= 1, got {base}")
    # Equation 3 in one pass: each class's (min, max) demand.
    low: dict[int, float] = {}
    high: dict[int, float] = {}
    for app in apps:
        demand, level = getattr(app, dim), app.priority
        if level not in low:
            low[level] = high[level] = demand
        elif demand < low[level]:
            low[level] = demand
        elif demand > high[level]:
            high[level] = demand
    if not low:
        return {}
    levels = sorted(low)
    weights: dict[int, float] = {levels[0]: 1.0}
    for prev, cur in zip(levels, levels[1:]):
        # Equation 5 with a strict-inequality nudge, floored at ``base``.
        ratio = max(base, math.ceil(high[prev] / low[cur]) + 1)
        weights[cur] = weights[prev] * ratio
    return weights


def weighted_flow_value(
    weights: dict[int, float], priority: int, flow: float
) -> float:
    """The weighted flow ``w_k · f`` contributed by one placement."""
    try:
        w = weights[priority]
    except KeyError:
        raise KeyError(
            f"priority class {priority} has no derived weight; known "
            f"classes: {sorted(weights)}"
        ) from None
    return w * flow


def verify_no_inversion(
    weights: dict[int, float],
    apps: list[Application],
    dim: str = "cpu",
) -> bool:
    """Check the Equation-5 guarantee on a concrete workload.

    True when, for every adjacent pair of classes, the smallest weighted
    flow in the higher class strictly exceeds the largest weighted flow
    in the lower class — i.e. no low-priority container can ever win a
    capacity contest against a high-priority one.
    """
    classes = classify_by_priority(apps)
    levels = sorted(classes)
    for prev, cur in zip(levels, levels[1:]):
        prev_max = max(getattr(a, dim) for a in classes[prev]) * weights[prev]
        cur_min = min(getattr(a, dim) for a in classes[cur]) * weights[cur]
        if cur_min <= prev_max:
            return False
    return True
