"""Greedy case shrinking: smallest input that still breaks the oracle.

Fuzzers find failures on noisy 200-vertex graphs with four overridden
knobs; nobody debugs those.  :func:`shrink_case` repeatedly applies
size- and complexity-reducing transformations — halve the vertex and
edge counts, drop knob overrides back to the named default, zero the
scale exponents, fall back to the plainest graph kind and machine —
and keeps a candidate only while the *same oracle still fails* on it.
The result is the (locally) minimal case that is serialised into the
repro file.

The failure predicate must return ``True`` only for a genuine
:class:`~repro.errors.VerificationError`; a candidate that blows up
some other way (an invalid shrink) is simply rejected, never adopted.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from .cases import KNOBS, Case

#: Hard ceiling on predicate evaluations per shrink (each evaluation
#: re-runs the oracle, so this bounds shrinking wall-clock).
DEFAULT_MAX_EVALS = 48


def _candidates(case: Case) -> list[Case]:
    """Single-step reductions of ``case``, most aggressive first."""
    out: list[Case] = []

    def mutate(**changes) -> None:
        candidate = dataclasses.replace(case, **changes)
        if candidate != case:
            out.append(candidate)

    if case.num_vertices > 2:
        mutate(num_vertices=max(2, case.num_vertices // 2),
               num_edges=max(1, min(case.num_edges,
                                    case.num_vertices // 2 * 4)))
    if case.num_edges > 1:
        mutate(num_edges=max(1, case.num_edges // 2))
    if case.graph_kind != "erdos-renyi":
        mutate(graph_kind="erdos-renyi")
    if case.weighted:
        mutate(weighted=False)
    if case.vertex_scale_exp or case.edge_scale_exp:
        mutate(vertex_scale_exp=0, edge_scale_exp=0)
    for knob in KNOBS:
        if getattr(case, knob) is not None:
            mutate(**{knob: None})
    if case.machine != "acc+HyVE-opt":
        mutate(machine="acc+HyVE-opt")
    if case.root != 0:
        mutate(root=0)
    return out


def shrink_case(
    case: Case,
    still_fails: Callable[[Case], bool],
    max_evals: int = DEFAULT_MAX_EVALS,
) -> tuple[Case, int]:
    """Greedily minimise ``case`` while ``still_fails`` holds.

    Returns ``(smallest_failing_case, evaluations_spent)``.  The input
    case is assumed failing (it is returned unchanged if no reduction
    reproduces the failure or the evaluation budget runs out).
    """
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _candidates(case):
            if evals >= max_evals:
                break
            evals += 1
            if still_fails(candidate):
                case = candidate
                improved = True
                break
    return case, evals
