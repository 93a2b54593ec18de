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

from .core import DEFAULT_MAX_DIM, SizeCapError, random_cat_state
from .protocols import (
    PROB_FLOOR,
    ProtocolKind,
    ProtocolSpec,
    check_size,
    enumerate_outcomes,
    ladder_k,
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
    return spec.d ** ladder_k(spec)


def collective_measurement_arity(spec: ProtocolSpec) -> int:
    """Particles measured jointly: m - k + 3 on the ladder."""
    return spec.m - ladder_k(spec) + 3


def cost_of(
    spec: ProtocolSpec,
    *,
    cross_check: bool = True,
    seed: int = 0,
    max_dim: int = DEFAULT_MAX_DIM,
) -> CostRow:
    """Cost row for one protocol.

    With ``cross_check`` the analytic nonzero-outcome count is compared
    against an actual enumeration on a random cat state whenever the full
    register fits under the size cap; a mismatch raises RuntimeError.
    """
    nonzero = nonzero_outcome_count(spec)
    if cross_check:
        try:
            check_size(spec.d, spec.m, max_dim)
        except SizeCapError:
            pass
        else:
            cat = random_cat_state(spec.d, spec.m, seed)
            observed = sum(
                1
                for record in enumerate_outcomes(cat, spec, max_dim=max_dim)
                if record.probability > PROB_FLOOR
            )
            if observed != nonzero:
                raise RuntimeError(
                    f"enumerated {observed} nonzero outcomes for {spec}, "
                    f"expected {nonzero}"
                )
    return CostRow(
        spec=spec,
        total_outcome_count=spec.d ** (spec.m + 1),
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
    hybrid ladder k = 2..m+1 when ``include_hybrids`` is set.
    """
    d_values = sorted(set(int(d) for d in d_values))
    m_values = sorted(set(int(m) for m in m_values))
    if not d_values or not m_values:
        raise ValueError("d and m ranges must be nonempty")
    rows = []
    for d in d_values:
        for m in m_values:
            rows.extend(
                cost_of(spec, cross_check=cross_check, max_dim=max_dim)
                for spec in protocol_specs(d, m)
                if include_hybrids or spec.kind is not ProtocolKind.HYBRID
            )
    return rows
