"""Classical-communication cost accounting for the protocol family.

Cost is log2 of the number of outcomes the sender can actually observe
(outcomes with nonzero probability), not of the full basis cardinality:
only distinguishable results need transmitting. Both the exact real bit
count and its ceiling are reported, since d is rarely a power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import DEFAULT_MAX_DIM, SizeCapError, _integer, random_cat_coeffs
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


def _cross_check(d: int, m: int, specs, seed: int, max_dim: int) -> None:
    """The one cross-check of :func:`cost_of` and :func:`cost_table`: raise
    RuntimeError at the first of ``specs``, all at (d, m), whose live rows'
    probabilities on the random cat state of ``seed`` are not over PROB_FLOOR
    exactly ``nonzero_outcome_count(spec)`` times. One branch pass, stacked
    over the specs' live counts, serves every spec; each row is rounded as
    it would be alone. Over the size cap, check nothing."""
    try:
        check_size(d, m, max_dim)
    except SizeCapError:
        return
    register = Register.of(d, m)
    lives = sorted({spec.rung.live for spec in specs})
    probabilities = _pair_branches(register, random_cat_coeffs(d, [seed])[0], lives)[1]
    nonzero = probabilities > PROB_FLOOR
    for spec in specs:
        live_rows = nonzero[lives.index(spec.rung.live)][register.column(spec.rung)]
        observed = int(np.count_nonzero(live_rows))
        expected = nonzero_outcome_count(spec)
        if observed != expected:
            raise RuntimeError(
                f"counted {observed} nonzero outcomes for {spec}, "
                f"expected {expected}"
            )


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
    if cross_check:
        _cross_check(spec.d, spec.m, [spec], seed, max_dim)
    nonzero = nonzero_outcome_count(spec)
    return CostRow(
        spec=spec,
        total_outcome_count=spec.rung.rows,
        nonzero_outcome_count=nonzero,
        classical_bits=math.log2(nonzero),
        classical_bits_ceil=(nonzero - 1).bit_length(),
        collective_measurement_arity=collective_measurement_arity(spec),
    )


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
    cross-check is ``cost_of``'s at seed 0, on one cat state per pair, for
    the rows the table keeps and no others.
    """
    d_values = sorted({_integer("d", d) for d in d_values})
    m_values = sorted({_integer("m", m) for m in m_values})
    if not d_values or not m_values:
        raise ValueError("d and m ranges must be nonempty")
    rows = []
    for d in d_values:
        for m in m_values:
            specs = [spec for spec in protocol_specs(d, m)
                     if include_hybrids or spec.kind is not ProtocolKind.HYBRID]
            if cross_check:
                _cross_check(d, m, specs, 0, max_dim)
            rows.extend(cost_of(spec, cross_check=False) for spec in specs)
    return rows
