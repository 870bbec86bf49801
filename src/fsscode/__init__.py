"""Quasi-cyclic LDPC codes from finite set systems.

Pipeline: define or construct a set system, search for circulant shifts
achieving a target girth, expand to a parity-check matrix, and evaluate the
code by exact girth computation and AWGN simulation.
"""

from .setsystem import (
    BinaryMatrix,
    SetSystem,
    SetSystemError,
    SystemStats,
    block_stats,
    incidence_matrix,
    validate_fss,
)
from .qc import (
    QCProtoMatrix,
    ShiftSequence,
    assemble,
    exact_rate,
    expand,
    gf2_rank,
    read_alist,
    shift_sequence_from_list,
    shifts_from_json,
    shifts_to_json,
    write_alist,
)
from .girth import (
    CycleWitness,
    GirthReport,
    WalkWitness,
    bsg_shortest_closed_walk,
    inevitable_girth,
    tanner_girth,
    verify_walk,
)
from .shiftsearch import SearchPolicy, SearchResult, search_shifts
from .construct import (
    ConstructionError,
    ConstructionResult,
    WeightProfile,
    method1,
    method1_lift,
    method2,
)
from .sim import (
    BerRecord,
    ChannelConfig,
    DecodeResult,
    StopRule,
    ber_sweep,
    spa_decode,
    transmit,
    write_ber_csv,
)

__version__ = "0.1.0"


def load_paper_tables():
    """Bundled reference systems, shift sequences and weight profiles."""
    import json
    from importlib import resources

    with resources.files(__package__).joinpath("data/paper_tables.json").open() as fh:
        return json.load(fh)


def reference_code(name: str) -> QCProtoMatrix:
    """Proto-matrix of the bundled girth code ``name``: ``b`` copies of the
    block ``{1..v}`` lifted by the published shifts of ``paper_tables.json``.
    ``expand`` it for the parity-check matrix; raises ``ValueError`` for a
    name the table does not hold."""
    row = next((r for r in load_paper_tables()["girth_codes"]
                if r["name"] == name), None)
    if row is None:
        raise ValueError(f"unknown reference code {name!r}")
    fss = SetSystem(v=row["v"], blocks=tuple(tuple(range(1, row["v"] + 1))
                                             for _ in range(row["b"])))
    return assemble(fss, shift_sequence_from_list(fss, row["m"], row["shifts"]))
