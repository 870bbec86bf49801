"""BPSK / AWGN performance evaluation with sum-product decoding.

All-zero codewords are transmitted (valid for linear codes on a symmetric
channel); per-frame noise is seeded from (run seed, SNR index, frame index),
so serial and parallel schedules produce identical results.

Frame f of SNR point i uses ``PCG64(SeedSequence(seed, spawn_key=(i, f)))``.
Building that object costs more than drawing the frame's noise, but the
SeedSequence hash is fixed uint32 arithmetic, so ``ber_sweep`` runs it for a
chunk of up to ``_SEED_CHUNK`` frames at once in numpy, one uint32 column
per entropy word, and turns each frame's words into its PCG64 state. One
reused ``PCG64`` takes each state in turn and draws that frame's noise, so
every frame's LLRs are byte-identical to ``transmit`` with numpy's own
generator. The first frame of every chunk is also seeded by numpy, and a
mismatch raises ``RuntimeError``.

The decoder stores its messages slot-major: slot k of check row r carries
the edge to the row's k-th column, so check-node messages form a
``(max row degree, rows)`` array per frame. The check-node product is one
``multiply.reduce`` down the slot axis (left to right, as a per-row
reduction) and the leave-one-out ``prod / t`` is a broadcast. Columns read
their messages through a ``(max column degree, columns)`` table of slot
positions in ascending row order, so each column total is summed in the
order ``bincount`` would use. One gather of the column totals per iteration
gives both the syndrome (an xor down the slot axis) and the next
variable-to-check messages. The ``1e-300`` guard and the ``prod / t``
division are kept on purpose: with them every decode is bit-identical to
the plain edge-list formulation of the same rule.

Every message buffer has a leading frame axis, so one kernel decodes a
batch of frames in lockstep and pays numpy's per-call overhead once per
batch instead of once per frame. Frames still running occupy the leading
rows; when some finish, their results are written out and the survivors
are moved up, one copy per buffer, so a finished frame is never iterated
again. ``spa_decode`` is that kernel on a batch of one. ``ber_sweep`` sizes
its batches from an edge budget (``_EDGE_BUDGET // edges`` frames, at least
one), so short codes decode many frames at once while long ones, whose
per-call overhead is already small, decode one at a time; it counts frames
in frame order and discards any decoded past its stopping frame.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from time import perf_counter

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
        if not math.isfinite(self.ebn0_db):
            raise ValueError(f"ebn0_db must be finite, got {self.ebn0_db}")

    @cached_property
    def noise_var(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))

    @cached_property
    def _sigma(self) -> float:
        return np.sqrt(self.noise_var)


@dataclass(frozen=True)
class DecodeResult:
    bits: np.ndarray
    converged: bool
    iterations: int


@dataclass(frozen=True)
class BerRecord:
    """Counts of one SNR point. ``stats`` holds counters and timings that
    stay out of equality and of the CSV: ``iterations``, a histogram of
    decoder iterations indexed by iteration count; ``undetected_errors``, the
    frames that converged to a nonzero codeword; and ``noise_s`` and
    ``decode_s``, the wall seconds spent making LLRs and decoding them."""

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
    return _noise_to_llr(rng.standard_normal(n), cfg)


def _noise_to_llr(z: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Turn standard normal draws into channel LLRs in place, on one frame or
    a batch of rows. ``sigma * z`` is exactly what ``normal(0.0, sigma)``
    returns (``0.0 + sigma * z``), so these are its LLRs bit for bit."""
    z *= cfg._sigma
    z += 1.0
    z *= 2.0
    z /= cfg.noise_var
    return z


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# seeding, so the states of many frames can be worked out at once
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK128 = (1 << 128) - 1

# frames whose PCG64 states ber_sweep works out in one pass
_SEED_CHUNK = 1024


def _uint32_words(x: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words, as SeedSequence
    reads its entropy and each spawn-key entry."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hash_constants(h: int, mult: int):
    """SeedSequence's hash constants, which depend on no data: each
    ``hashmix`` xors with the current one and multiplies by the next."""
    while True:
        nxt = h * mult & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(col, consts):
    xor, mult = next(consts)
    col = (col ^ xor) * mult
    return col ^ (col >> np.uint32(16))


def _mix(x, y):
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(16))


def _pcg64_state_words(entropy) -> list[list[int]]:
    """``SeedSequence.mix_entropy`` and ``generate_state(4, uint64)`` on
    uint32 columns, one per entropy word (at least the pool size of them):
    item k of the result is the k-th uint64 state word of every column
    entry, as Python ints."""
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(word, consts).astype(np.uint64) for word in pool + pool]
    return [(state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist()
            for k in range(4)]


def _pcg64_states(seed: int, snr_idx: int, start: int,
                  count: int) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=(snr_idx,
    f)))`` for frames f = start .. start + count - 1, count >= 1.

    Frames are hashed a run at a time, a run ending where the frame index
    gains a 32-bit word, so within it only the low frame word varies. The
    first frame is also seeded by numpy itself, and a mismatch raises
    ``RuntimeError``: a numpy that changed its seeding algorithm fails here
    instead of changing every frame's noise.
    """
    # with a spawn key, SeedSequence pads the run entropy to the pool size
    prefix = _uint32_words(seed)
    prefix += [0] * (_POOL_SIZE - len(prefix)) + _uint32_words(snr_idx)
    states = []
    f, stop = start, start + count
    while f < stop:
        end = min(stop, (f | _MASK32) + 1)
        low, *high = _uint32_words(f)
        entropy = [np.full(end - f, w, dtype=np.uint32) for w in prefix]
        entropy.append(np.arange(low, low + end - f, dtype=np.uint32))
        entropy += [np.full(end - f, w, dtype=np.uint32) for w in high]
        s_hi, s_lo, i_hi, i_lo = _pcg64_state_words(entropy)
        for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
            inc = ((c << 65) | (d << 1) | 1) & _MASK128
            states.append(((inc + (a << 64 | b)) * _PCG_MULT + inc & _MASK128,
                           inc))
        f = end
    ref = np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(snr_idx, start))).state["state"]
    if (ref["state"], ref["inc"]) != states[0]:
        raise RuntimeError(
            "numpy's SeedSequence/PCG64 seeding no longer matches the "
            f"batched hash (seed {seed}, SNR index {snr_idx}, frame {start})")
    return states


def _frame_states(seed: int, snr_idx: int, max_frames: int):
    """PCG64 ``(state, inc)`` of frames 0 .. max_frames - 1 of one SNR point,
    hashed ``_SEED_CHUNK`` frames at a time as they are taken."""
    for start in range(0, max_frames, _SEED_CHUNK):
        yield from _pcg64_states(seed, snr_idx, start,
                                 min(_SEED_CHUNK, max_frames - start))


class _SpaWorkspace:
    """Slot-major view of H plus message buffers for up to ``frames`` frames.

    Slot k of row r holds the k-th column of that row, so check-node
    messages are ``(frames, max row degree, rows)`` arrays and the check-node
    update runs down the slot axis without a gather. ``slot_col`` names each
    slot's column; a padding slot names column n, whose total stays 0.0.
    Column c reads its messages through ``col_slot[:, c]``, flat slot
    positions in ascending row order (``bincount``'s order); a padding entry
    names a trailing 0.0. ``pad`` lists the flat padding slots, or is None.

    The buffers are overwritten by every decode, so a workspace serves one
    decode call at a time.
    """

    def __init__(self, H: BinaryMatrix, frames: int = 1):
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
        self.n = n
        self.llr = np.empty((frames, n))
        self.total = np.zeros((frames, n + 1))
        self.v2c = np.empty((frames, dr, m))
        self.c2v_ext = np.zeros((frames, dr * m + 1))
        self.c2v = self.c2v_ext[:, :-1].reshape(frames, dr, m)
        self.gathered = np.empty((frames,) + self.col_slot.shape)
        self.prod = np.empty((frames, 1, m))
        self.mask = np.empty((frames, dr, m), dtype=bool)
        self.bits = np.empty((frames, n), dtype=bool)
        self.converged = np.empty(frames, dtype=bool)
        self.iterations = np.empty(frames, dtype=np.intp)


_LIM = 0.999999999999

# ber_sweep decodes max(1, _EDGE_BUDGET // edges) frames per batch: 24 of
# the n=360 reference code (1,080 edges), whose batch buffers take ~0.7 MB,
# and one at a time for any code with more than 12,960 edges (n=25,700 has
# 77,100), where numpy's per-call overhead is already small.
_EDGE_BUDGET = 25_920


def _decode_frames(ws: _SpaWorkspace, count: int, max_iter: int) -> None:
    """Decode the LLR rows ``ws.llr[:count]`` in lockstep, writing each
    frame's hard decisions, convergence flag and iteration count to
    ``ws.bits``, ``ws.converged`` and ``ws.iterations`` at its row.

    Active frames occupy the leading rows of every buffer. When frames
    finish (zero syndrome, or ``max_iter`` reached) their results are written
    out and the survivors are moved up, one copy per buffer, so no finished
    frame is iterated again. Every frame sees the same element-wise
    arithmetic as a decode on its own.
    """
    ids = np.arange(count)
    total = ws.total[:count]
    total[:, :-1] = ws.llr[:count]
    np.take(total, ws.slot_col, axis=1, out=ws.v2c[:count], mode="clip")
    it = 0
    while True:
        # zero syndrome of the hard decisions, read off the gathered totals
        mask = ws.mask[:count]
        np.less(ws.v2c[:count], 0.0, out=mask)
        bad = np.logical_xor.reduce(mask, axis=1).any(axis=1)
        done = ~bad if it < max_iter else np.ones(count, dtype=bool)
        if done.any():
            fin = ids[done]
            ws.bits[fin] = (ws.total[:count, :-1] < 0.0)[done]
            ws.converged[fin] = ~bad[done]
            ws.iterations[fin] = it
            keep = np.flatnonzero(~done)
            count = keep.size
            if not count:
                return
            ids = ids[keep]
            for buf in (ws.v2c, ws.c2v_ext, ws.llr):
                buf[:count] = buf[keep]
        v2c, c2v, mask = ws.v2c[:count], ws.c2v[:count], ws.mask[:count]
        if it:
            np.subtract(v2c, c2v, out=v2c)
        it += 1

        # check nodes: v2c -> c2v by the tanh rule, leave-one-out as prod / t
        t = v2c
        np.multiply(t, 0.5, out=t)
        np.tanh(t, out=t)
        t.clip(-_LIM, _LIM, out=t)
        np.abs(t, out=c2v)
        np.less(c2v, 1e-300, out=mask)
        np.copyto(t, 1e-300, where=mask)
        if ws.pad is not None:
            t.reshape(count, -1)[:, ws.pad] = 1.0
        prod = ws.prod[:count]
        np.multiply.reduce(t, axis=1, out=prod, keepdims=True)
        np.divide(prod, t, out=c2v)
        c2v.clip(-_LIM, _LIM, out=c2v)
        np.arctanh(c2v, out=c2v)
        np.multiply(c2v, 2.0, out=c2v)

        # variable nodes: totals llr + sum of c2v, summed in ascending row
        # order from 0.0 as bincount does; then gather them back to slots
        gathered = ws.gathered[:count]
        np.take(ws.c2v_ext[:count], ws.col_slot, axis=1, out=gathered,
                mode="clip")
        total = ws.total[:count]
        acc = total[:, :-1]
        acc.fill(0.0)
        for k in range(gathered.shape[1]):
            np.add(acc, gathered[:, k], out=acc)
        np.add(ws.llr[:count], acc, out=acc)
        np.take(total, ws.slot_col, axis=1, out=v2c, mode="clip")


def spa_decode(H: BinaryMatrix, llr, max_iter: int = 50) -> DecodeResult:
    """Log-domain sum-product (tanh rule) with a flooding schedule and early
    exit on a zero syndrome. LLRs may be infinite but not NaN."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    ws = _SpaWorkspace(H)
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (ws.n,):
        raise ValueError(f"LLR length {llr.shape} != column count {ws.n}")
    if np.isnan(llr).any():
        raise ValueError("LLR vector contains NaN")
    ws.llr[0] = llr
    _decode_frames(ws, 1, max_iter)
    return DecodeResult(bits=ws.bits[0].astype(np.int64),
                        converged=bool(ws.converged[0]),
                        iterations=int(ws.iterations[0]))


def ber_sweep(H: BinaryMatrix, ebn0_list, rate: float,
              stop: StopRule | None = None, seed: int = 0,
              max_iter: int = 50) -> list[BerRecord]:
    """Monte-Carlo BER/FER per SNR point, early-stopping on frame errors.

    Frame f of SNR point i draws its noise from
    SeedSequence(seed, spawn_key=(i, f)), independent of scheduling; its
    LLRs are byte-identical to ``transmit`` with that generator. The PCG64
    states of up to ``_SEED_CHUNK`` frames (no more than the stop rule's
    frame cap leaves) are hashed in one numpy pass, and the first frame of
    each chunk is checked against numpy's own seeding. One reused PCG64 takes
    each frame's state and draws its row of the batch, and the LLR scaling
    runs once per batch. Frames are decoded in batches and counted in frame
    order, so the sweep stops at exactly the frame that brings in the last
    frame error it needs. ``seed`` must be a non-negative integer; a
    ``bool`` is rejected.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    stop = stop or StopRule()
    # columns bound the batch too: a workspace holds O(edges + columns)
    # floats per frame, and H may have few or no edges
    batch = max(1, _EDGE_BUDGET // max(H.nnz, H.cols, 1))
    ws = _SpaWorkspace(H, frames=batch)
    bitgen = np.random.PCG64(0)  # its state is set before every frame
    rng = np.random.Generator(bitgen)
    pcg = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    records = []
    for snr_idx, ebn0 in enumerate(ebn0_list):
        cfg = ChannelConfig(ebn0_db=ebn0, rate=rate)
        bits = errors = frames = frame_errors = undetected = 0
        iterations = np.zeros(max_iter + 1, dtype=np.int64)
        noise_s = decode_s = 0.0
        states = _frame_states(seed, snr_idx, stop.max_frames)
        while frame_errors < stop.min_frame_errors and frames < stop.max_frames:
            count = min(batch, stop.max_frames - frames)
            t0 = perf_counter()
            # zip takes from range first, so no state past the batch is taken
            for f, (state, inc) in zip(range(count), states):
                pcg["state"] = {"state": state, "inc": inc}
                bitgen.state = pcg
                rng.standard_normal(out=ws.llr[f])
            _noise_to_llr(ws.llr[:count], cfg)
            t1 = perf_counter()
            _decode_frames(ws, count, max_iter)
            decode_s += perf_counter() - t1
            noise_s += t1 - t0
            nerr = ws.bits[:count].sum(axis=1)
            # the frame errors still needed; the sweep ends at the last one
            need = stop.min_frame_errors - frame_errors
            failed = np.flatnonzero(nerr)[:need]
            used = int(failed[-1]) + 1 if failed.size == need else count
            bits += used * ws.n
            errors += int(nerr[:used].sum())
            frames += used
            frame_errors += failed.size
            undetected += int(ws.converged[failed].sum())
            iterations += np.bincount(ws.iterations[:used],
                                      minlength=max_iter + 1)
        records.append(BerRecord(
            ebn0_db=ebn0, bits=bits, bit_errors=errors, frames=frames,
            frame_errors=frame_errors,
            stats={"iterations": iterations.tolist(),
                   "undetected_errors": undetected,
                   "noise_s": noise_s, "decode_s": decode_s}))
    return records


def write_ber_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in records:
            w.writerow([r.ebn0_db, r.bits, r.bit_errors, r.frames,
                        r.frame_errors, f"{r.ber:.6e}", f"{r.fer:.6e}"])
