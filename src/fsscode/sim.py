"""BPSK / AWGN performance evaluation with sum-product decoding.

All-zero codewords are transmitted (valid for linear codes on a symmetric
channel); per-frame noise is seeded from (run seed, SNR index, frame index),
so serial and parallel schedules produce identical results.

The decoder stores its messages slot-major: slot k of check row r carries
the edge to the row's k-th column, so check-node messages form a
``(max row degree, rows)`` array. The check-node product is one
``multiply.reduce`` down the slot axis (left to right, as a per-row
reduction) and the leave-one-out ``prod / t`` is a broadcast. Columns read
their messages through a ``(max column degree, columns)`` table of slot
positions in ascending row order, so each column total is summed in the
order ``bincount`` would use. One gather of the column totals per iteration
gives both the syndrome (an xor down the slot axis) and the next
variable-to-check messages. The ``1e-300`` guard and the ``prod / t``
division are kept on purpose: with them every decode is bit-identical to
the plain edge-list formulation of the same rule.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .setsystem import BinaryMatrix

__all__ = [
    "ChannelConfig",
    "DecodeResult",
    "BerRecord",
    "StopRule",
    "transmit",
    "spa_decode",
    "ber_sweep",
    "write_ber_csv",
]

CSV_HEADER = ["ebn0_db", "bits", "bit_errors", "frames", "frame_errors", "ber", "fer"]


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN channel at a given Eb/N0 for a code of the given rate."""

    ebn0_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    @property
    def noise_var(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


@dataclass(frozen=True)
class DecodeResult:
    bits: np.ndarray
    converged: bool
    iterations: int


@dataclass(frozen=True)
class BerRecord:
    """Counts of one SNR point. ``stats`` holds counters that stay out of
    equality and of the CSV: ``iterations``, a histogram of decoder
    iterations indexed by iteration count, and ``undetected_errors``, the
    frames that converged to a nonzero codeword."""

    ebn0_db: float
    bits: int
    bit_errors: int
    frames: int
    frame_errors: int
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0


@dataclass(frozen=True)
class StopRule:
    """Collect at least ``min_frame_errors`` frame errors per SNR point,
    giving up after ``max_frames`` frames."""

    min_frame_errors: int = 100
    max_frames: int = 100_000

    def __post_init__(self):
        if self.min_frame_errors < 1:
            raise ValueError(
                f"min_frame_errors must be >= 1, got {self.min_frame_errors}")
        if self.max_frames < 0:
            raise ValueError(f"max_frames must be >= 0, got {self.max_frames}")


def transmit(n: int, cfg: ChannelConfig, rng=None) -> np.ndarray:
    """Channel LLRs for an all-zero codeword: 2y/sigma^2, y = 1 + noise."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    var = cfg.noise_var
    y = 1.0 + rng.normal(0.0, np.sqrt(var), size=n)
    return 2.0 * y / var


class _SpaWorkspace:
    """Slot-major view of H plus the decoder's message buffers.

    Slot k of row r holds the k-th column of that row, so check-node
    messages are ``(max row degree, rows)`` arrays and the check-node update
    runs down the slot axis without a gather. ``slot_col`` names each slot's
    column; a padding slot names column n, whose total stays 0.0. Column c
    reads its messages through ``col_slot[:, c]``, flat slot positions in
    ascending row order (``bincount``'s order); a padding entry names a
    trailing 0.0. ``pad`` lists the flat padding slots, or is None.

    The buffers are overwritten by every decode, so a workspace serves one
    decode at a time.
    """

    def __init__(self, H: BinaryMatrix):
        m, n = H.rows, H.cols
        deg = np.fromiter(map(len, H.row_support), dtype=np.intp, count=m)
        nnz = int(deg.sum())
        cols = np.fromiter(chain.from_iterable(H.row_support), dtype=np.intp,
                           count=nnz)
        rows = np.repeat(np.arange(m), deg)
        slot = np.arange(nnz) - (np.cumsum(deg) - deg)[rows]
        flat = slot * m + rows
        dr = int(deg.max(initial=0))
        self.slot_col = np.full((dr, m), n, dtype=np.intp)
        self.slot_col[slot, rows] = cols

        by_col = np.argsort(cols, kind="stable")  # keeps rows ascending
        cdeg = np.bincount(cols, minlength=n)
        rank = np.arange(nnz) - (np.cumsum(cdeg) - cdeg)[cols[by_col]]
        self.col_slot = np.full((int(cdeg.max(initial=0)), n), dr * m,
                                dtype=np.intp)
        self.col_slot[rank, cols[by_col]] = flat[by_col]

        self.pad = np.flatnonzero(self.slot_col == n) if nnz < dr * m else None
        self.n, self.m = n, m
        self.total = np.zeros(n + 1)
        self.v2c = np.empty((dr, m))
        self.c2v_ext = np.zeros(dr * m + 1)
        self.c2v = self.c2v_ext[:-1].reshape(dr, m)
        self.gathered = np.empty(self.col_slot.shape)
        self.prod = np.empty(m)
        self.mask = np.empty((dr, m), dtype=bool)


_LIM = 0.999999999999


def _parity_ok(ws: _SpaWorkspace) -> bool:
    """Zero syndrome of the hard decisions, read off the gathered totals."""
    np.less(ws.v2c, 0.0, out=ws.mask)
    return not np.logical_xor.reduce(ws.mask, axis=0).any()


def _check_update(ws: _SpaWorkspace) -> None:
    """v2c -> c2v by the tanh rule, leave-one-out as prod / t."""
    t, c2v = ws.v2c, ws.c2v
    np.multiply(t, 0.5, out=t)
    np.tanh(t, out=t)
    t.clip(-_LIM, _LIM, out=t)
    np.abs(t, out=c2v)
    np.less(c2v, 1e-300, out=ws.mask)
    np.copyto(t, 1e-300, where=ws.mask)
    if ws.pad is not None:
        t.reshape(-1)[ws.pad] = 1.0
    np.multiply.reduce(t, axis=0, out=ws.prod)
    np.divide(ws.prod, t, out=c2v)
    c2v.clip(-_LIM, _LIM, out=c2v)
    np.arctanh(c2v, out=c2v)
    np.multiply(c2v, 2.0, out=c2v)


def _variable_update(ws: _SpaWorkspace, llr: np.ndarray) -> None:
    """c2v -> column totals llr + sum of c2v, summed in ascending row order
    from 0.0 as ``bincount`` does; then gathers the totals back to slots."""
    np.take(ws.c2v_ext, ws.col_slot, out=ws.gathered, mode="clip")
    acc = ws.total[:-1]
    acc.fill(0.0)
    for row in ws.gathered:
        np.add(acc, row, out=acc)
    np.add(llr, acc, out=acc)
    np.take(ws.total, ws.slot_col, out=ws.v2c, mode="clip")


def spa_decode(H: BinaryMatrix, llr, max_iter: int = 50,
               workspace: _SpaWorkspace | None = None) -> DecodeResult:
    """Log-domain sum-product (tanh rule) with a flooding schedule and early
    exit on a zero syndrome."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    ws = workspace or _SpaWorkspace(H)
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (ws.n,):
        raise ValueError(f"LLR length {llr.shape} != column count {ws.n}")

    ws.total[:-1] = llr
    np.take(ws.total, ws.slot_col, out=ws.v2c, mode="clip")
    it = 0
    while not _parity_ok(ws):
        if it == max_iter:
            return DecodeResult(bits=(ws.total[:-1] < 0).astype(np.int64),
                                converged=False, iterations=it)
        if it:
            np.subtract(ws.v2c, ws.c2v, out=ws.v2c)
        it += 1
        _check_update(ws)
        _variable_update(ws, llr)
    return DecodeResult(bits=(ws.total[:-1] < 0).astype(np.int64),
                        converged=True, iterations=it)


def ber_sweep(H: BinaryMatrix, ebn0_list, rate: float,
              stop: StopRule | None = None, seed: int = 0,
              max_iter: int = 50) -> list[BerRecord]:
    """Monte-Carlo BER/FER per SNR point, early-stopping on frame errors.

    Frame f of SNR point i draws its noise from
    SeedSequence(seed, spawn_key=(i, f)), independent of scheduling.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    stop = stop or StopRule()
    ws = _SpaWorkspace(H)
    records = []
    for snr_idx, ebn0 in enumerate(ebn0_list):
        cfg = ChannelConfig(ebn0_db=ebn0, rate=rate, seed=seed)
        bits = errors = frames = frame_errors = undetected = 0
        iterations = [0] * (max_iter + 1)
        while frame_errors < stop.min_frame_errors and frames < stop.max_frames:
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(snr_idx, frames))
            llr = transmit(ws.n, cfg, rng=np.random.default_rng(ss))
            out = spa_decode(H, llr, max_iter=max_iter, workspace=ws)
            nerr = int(out.bits.sum())
            bits += ws.n
            errors += nerr
            frames += 1
            iterations[out.iterations] += 1
            if nerr:
                frame_errors += 1
                undetected += out.converged
        records.append(BerRecord(
            ebn0_db=ebn0, bits=bits, bit_errors=errors, frames=frames,
            frame_errors=frame_errors,
            stats={"iterations": iterations, "undetected_errors": undetected}))
    return records


def write_ber_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in records:
            w.writerow([r.ebn0_db, r.bits, r.bit_errors, r.frames,
                        r.frame_errors, f"{r.ber:.6e}", f"{r.fer:.6e}"])
