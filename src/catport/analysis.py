"""Classical-communication cost accounting for the protocol family.

Cost is log2 of the number of outcomes the sender can actually observe
(outcomes with nonzero probability), not of the full basis cardinality:
only distinguishable results need transmitting. Both the exact real bit
count and its ceiling are reported, since d is rarely a power of two.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import DEFAULT_MAX_DIM, SizeCapError, random_cat_coeffs
from .protocols import (
    PROB_FLOOR,
    ProtocolKind,
    ProtocolSpec,
    Register,
    _pair_branches,
    check_size,
    protocol_specs,
)


@dataclass(frozen=True)
class CostRow:
    spec: ProtocolSpec
    total_outcome_count: int
    nonzero_outcome_count: int
    classical_bits: float
    classical_bits_ceil: int
    collective_measurement_arity: int


def nonzero_outcome_count(spec: ProtocolSpec) -> int:
    """d**2 for the collective protocols, d**(m+1) for Bell, d**k for hybrids."""
    return spec.rung.live


def collective_measurement_arity(spec: ProtocolSpec) -> int:
    """Particles measured jointly: m - k + 3 on the ladder."""
    return spec.rung.block + 1


def _fits(d: int, m: int, max_dim: int) -> bool:
    try:
        check_size(d, m, max_dim)
    except SizeCapError:
        return False
    return True


def _cross_check(spec: ProtocolSpec, observed: int) -> None:
    """Raise RuntimeError unless ``observed``, the number of the engine's
    outcome probabilities over PROB_FLOOR, is ``nonzero_outcome_count(spec)``."""
    expected = nonzero_outcome_count(spec)
    if observed != expected:
        raise RuntimeError(
            f"counted {observed} nonzero outcomes for {spec}, "
            f"expected {expected}"
        )


def _observed_counts(d: int, m: int, seed: int) -> list[int]:
    """For each spec of ``protocol_specs(d, m)``, in order, how many of its
    live rows' probabilities exceed PROB_FLOOR on the random cat state of
    ``seed``: one branch pass stacked over the ladder positions, and each
    stored live-pair column counted once."""
    register = Register.of(d, m)
    positions, slots = register.positions()
    lives = [position.live for position in positions]
    branched = _pair_branches(register, random_cat_coeffs(d, [seed])[0], lives)
    counts = [
        [int(np.count_nonzero(probabilities[column] > PROB_FLOOR)) for column in position.columns]
        for position, probabilities in zip(positions, branched[1])
    ]
    return [counts[position][column] for position, column in slots]


def cost_of(
    spec: ProtocolSpec,
    *,
    cross_check: bool = True,
    seed: int = 0,
    max_dim: int = DEFAULT_MAX_DIM,
) -> CostRow:
    """Cost row for one protocol.

    With ``cross_check``, whenever the register fits under the size cap, the
    analytic nonzero-outcome count is compared with the outcomes the engine
    gives nonzero probability on a random cat state: the d**k probabilities
    of the rows that can occur, each the probability ``enumerate_outcomes``
    records there, with every later row zero by structure. A mismatch raises
    RuntimeError.
    """
    if cross_check and _fits(spec.d, spec.m, max_dim):
        index = protocol_specs(spec.d, spec.m).index(spec)
        _cross_check(spec, _observed_counts(spec.d, spec.m, seed)[index])
    nonzero = nonzero_outcome_count(spec)
    return CostRow(
        spec=spec,
        total_outcome_count=spec.rung.rows,
        nonzero_outcome_count=nonzero,
        classical_bits=math.log2(nonzero),
        classical_bits_ceil=(nonzero - 1).bit_length(),
        collective_measurement_arity=collective_measurement_arity(spec),
    )


def _integers(values: Iterable[int], name: str) -> list[int]:
    """The distinct values, sorted; a bool or a non-integer raises ValueError."""
    distinct = set()
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} values must be integers, got {value!r}")
        distinct.add(int(value))
    return sorted(distinct)


def cost_table(
    d_values: Iterable[int],
    m_values: Iterable[int],
    include_hybrids: bool = False,
    *,
    cross_check: bool = False,
    max_dim: int = DEFAULT_MAX_DIM,
) -> list[CostRow]:
    """Rows for every (d, m) pair, ordered by d, m, then ladder order.

    Each pair contributes the Bell, GHZ and barred rows, plus the full
    hybrid ladder k = 2..m+1 when ``include_hybrids`` is set. The
    cross-check is ``cost_of``'s at seed 0, on one cat state per pair.
    """
    d_values = _integers(d_values, "d")
    m_values = _integers(m_values, "m")
    if not d_values or not m_values:
        raise ValueError("d and m ranges must be nonempty")
    rows = []
    for d in d_values:
        for m in m_values:
            observed = _observed_counts(d, m, 0) if cross_check and _fits(d, m, max_dim) else None
            for index, spec in enumerate(protocol_specs(d, m)):
                if include_hybrids or spec.kind is not ProtocolKind.HYBRID:
                    if observed is not None:
                        _cross_check(spec, observed[index])
                    rows.append(cost_of(spec, cross_check=False))
    return rows
