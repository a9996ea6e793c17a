"""The benchmark's instance pools, drawn with ``rkec.generate``.

Each workload is a fixed list of generator parameters, so its reports (and
their hash) can be compared byte for byte across commits; the benchmark seed
only sets the order in which the closed loop visits the pool.  README.md
says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from rkec.generate import GenParams, default_corpus_params


@dataclass(frozen=True)
class Workload:
    name: str
    params: tuple[GenParams, ...]
    brute: bool  # verify against a brute-forced optimum (needs <= 22 units)


def _midsize(seed: int) -> GenParams:
    return GenParams(
        nodes=20, terminals=7, k=2 + seed % 2, density=Fraction(3, 10),
        root_bias=Fraction(2), seed=seed,
    )


def _wide(seed: int) -> GenParams:
    return GenParams(nodes=24, terminals=12, k=1, density=Fraction(3, 10), seed=seed)


# Pool sizes keep one pass near 10 s, so a 30 s run visits each instance
# about three times and the per-instance median has something to reject.
WORKLOADS = {
    "corpus": Workload("corpus", tuple(default_corpus_params(s) for s in range(1, 501)), True),
    "midsize": Workload("midsize", tuple(_midsize(s) for s in range(1, 9)), False),
    "wide": Workload("wide", tuple(_wide(s) for s in range(1, 7)), False),
}
