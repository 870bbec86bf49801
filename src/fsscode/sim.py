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

``ber_sweep`` decodes on one lane per CPU that ``os.sched_getaffinity`` lets
the process use, and never on more lanes than the batches of the stop rule's
``max_frames`` can fill; no parameter sets the count. The calling process is
the first lane. Each other lane is a worker process forked at the start of
the ``ber_sweep`` call and reaped at its end, on return or on raise; it
inherits the first lane's index tables through the fork and builds its own
buffers (``_Worker``). A fork happens only where ``os.fork`` exists and no
other thread is alive; otherwise, and on one usable CPU, the sweep runs the
same rounds on one lane in process.

Each round deals every lane a share of whole batches, at least
``ceil(min(left, need) / lanes)`` frames, where ``need`` is the frame errors
still to collect and ``left`` the frames ``max_frames`` still allows: every
one of the next ``min(left, need)`` frames is counted whatever it decodes
to, so dealing them wastes nothing. While ``need`` is small the share also
doubles each round from one batch up to a cap of ``_SHARE_BATCHES``
batches' worth of edges, so the frames decoded past the stopping frame are
at most ``lanes`` times that cap per SNR point. No share exceeds the larger
of that cap and ``_SEED_CHUNK`` frames, which bounds the states a round
lists and pipes. On one lane the share stays one batch.
The calling process alone hashes frame states. It sends each worker its
frames' ``(state, inc)`` over a pipe, decodes the first share itself, reads
back per-frame bit errors, convergence flags and iteration counts, and counts
the round's frames in frame order with the usual stop rule, so the records
equal a one-lane sweep's bit for bit. A worker's failure or death raises
``RuntimeError``. On a 2-CPU Xeon VM two lanes ran acceptance criterion 09
(its 1.5 M-frame sweep of the n=360 code at 4.5 dB) at 0.63-0.68x of one
lane's time side by side; a frame there costs 57-85 us on each of two busy
CPUs against 50-57 us alone. A record's ``noise_s`` and ``decode_s`` are
summed over lanes, so they can exceed its wall time, and a worker's memory
is counted in ``RUSAGE_CHILDREN``, not in the caller's RSS.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import pickle
import threading
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter

import numpy as np

from .setsystem import BinaryMatrix, _integer, _iterable

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
    """AWGN channel at a given Eb/N0 for a code of the given rate.
    ``ebn0_db`` and ``rate`` must be real numbers and ``seed`` a
    non-negative integer; a bool is neither."""

    ebn0_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        _integer(self.seed, "seed", 0)
        for name in ("ebn0_db", "rate"):
            x = getattr(self, name)
            if not isinstance(x, numbers.Real) or isinstance(x, bool):
                raise ValueError(f"{name} must be a real number, got {x!r}")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if not math.isfinite(self.ebn0_db):
            raise ValueError(f"ebn0_db must be finite, got {self.ebn0_db}")

    @property
    def noise_var(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))

    @property
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
    ``decode_s``, the wall seconds spent making LLRs and decoding them,
    summed over decoding lanes (worker processes included), so they can
    exceed the point's wall time."""

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
    giving up after ``max_frames`` frames.  Both are integers; a bool is
    rejected."""

    min_frame_errors: int = 100
    max_frames: int = 100_000

    def __post_init__(self):
        _integer(self.min_frame_errors, "min_frame_errors", 1)
        _integer(self.max_frames, "max_frames", 0)


def transmit(n: int, cfg: ChannelConfig, rng=None) -> np.ndarray:
    """Channel LLRs for an all-zero codeword: 2y/sigma^2, y = 1 + noise."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return _noise_to_llr(rng.standard_normal(_integer(n, "n", 0)), cfg)


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
    """One decoding lane: H's slot-major index tables, message buffers for up
    to ``frames`` frames, and a reused PCG64.

    Slot k of row r holds the k-th column of that row, so check-node
    messages are ``(frames, max row degree, rows)`` arrays and the check-node
    update runs down the slot axis without a gather. ``slot_col`` names each
    slot's column; a padding slot names column n, whose total stays 0.0.
    Column c reads its messages through ``col_slot[:, c]``, flat slot
    positions in ascending row order (``bincount``'s order); a padding entry
    names a trailing 0.0. ``pad`` lists the flat padding slots, or is None.

    The tables are built here, or taken by reference from the workspace
    ``share`` (in a forked worker, the first lane's inherited copy); they are
    read-only once built, so any number of workspaces can share them. The
    buffers and the PCG64 are the workspace's own and are overwritten by
    every decode, so a workspace serves one decode call at a time, and
    workspaces that share tables do not interfere. ``noise_s`` and
    ``decode_s`` add up the wall time of its ``decode`` calls.
    """

    def __init__(self, H: BinaryMatrix | None, frames: int = 1,
                 share: _SpaWorkspace | None = None):
        if share is not None:
            self.slot_col, self.col_slot, self.pad, self.n = (
                share.slot_col, share.col_slot, share.pad, share.n)
        else:
            m, n, nnz, rows, cols = H.rows, H.cols, H.nnz, H.edge_rows, H.edge_cols
            slot = np.arange(nnz) - H.row_ptr[rows]
            flat = slot * m + rows
            dr = int(np.diff(H.row_ptr).max(initial=0))
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
        (dr, m), n = self.slot_col.shape, self.n
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
        self.bitgen = np.random.PCG64(0)  # its state is set before every frame
        self.rng = np.random.Generator(self.bitgen)
        self.noise_s = self.decode_s = 0.0

    def decode(self, states, cfg: ChannelConfig, max_iter: int):
        """Decode the frames whose PCG64 ``(state, inc)`` are ``states``, a
        batch of up to ``frames`` at a time: draw their LLRs into the leading
        rows of ``llr``, then decode them. Returns each frame's bit errors,
        convergence flag and iteration count, as three arrays."""
        count = len(states)
        nerr = np.empty(count, dtype=np.int64)
        converged = np.empty(count, dtype=bool)
        iterations = np.empty(count, dtype=np.intp)
        pcg = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
        for lo in range(0, count, len(self.llr)):
            size = min(len(self.llr), count - lo)
            t0 = perf_counter()
            for f, (state, inc) in enumerate(states[lo:lo + size]):
                pcg["state"] = {"state": state, "inc": inc}
                self.bitgen.state = pcg
                self.rng.standard_normal(out=self.llr[f])
            _noise_to_llr(self.llr[:size], cfg)
            t1 = perf_counter()
            _decode_frames(self, size, max_iter)
            nerr[lo:lo + size] = self.bits[:size].sum(axis=1)
            converged[lo:lo + size] = self.converged[:size]
            iterations[lo:lo + size] = self.iterations[:size]
            self.decode_s += perf_counter() - t1
            self.noise_s += t1 - t0
        return nerr, converged, iterations


_LIM = 0.999999999999
_MAX_ITER = 50  # spa_decode's, ber_sweep's and ``fsscode simulate``'s default

# ber_sweep decodes max(1, _EDGE_BUDGET // edges) frames per batch: 24 of
# the n=360 reference code (1,080 edges), whose batch buffers take ~0.7 MB,
# and one at a time for any code with more than 12,960 edges (n=25,700 has
# 77,100), where numpy's per-call overhead is already small.
_EDGE_BUDGET = 25_920
# while few frame errors are still needed, a worker lane's share of a round
# doubles up to this many batches of _EDGE_BUDGET edges (768 frames of the
# n=360 code, 10 of n=25,700), ~50 ms of decoding or more, which spreads a
# round's messages and waits and bounds the frames wasted past the stopping
# frame
_SHARE_BATCHES = 32


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


def spa_decode(H: BinaryMatrix, llr, max_iter: int = _MAX_ITER) -> DecodeResult:
    """Log-domain sum-product (tanh rule) with a flooding schedule and early
    exit on a zero syndrome. LLRs may be infinite but not NaN; ``max_iter``
    is a non-negative integer, not a bool."""
    max_iter = _integer(max_iter, "max_iter", 0)
    ws = _SpaWorkspace(H)
    llr = np.asarray(llr)
    if llr.dtype.kind not in "iuf" or llr.shape != (ws.n,):
        raise ValueError(f"LLRs must be {ws.n} reals, got {llr.dtype} {llr.shape}")
    if np.isnan(llr).any():
        raise ValueError("LLR vector contains NaN")
    ws.llr[0] = llr
    _decode_frames(ws, 1, max_iter)
    return DecodeResult(bits=ws.bits[0].astype(np.int64),
                        converged=bool(ws.converged[0]),
                        iterations=int(ws.iterations[0]))


def _lane_count(batch: int, max_frames: int) -> int:
    """Decoding lanes of a sweep: one per CPU this process may run on, no
    more than the ``batch``-frame batches ``max_frames`` can fill, and one
    where a worker cannot be forked safely (no ``os.fork``, or another
    thread is alive, whose locks a child would inherit held)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, -(-max_frames // batch)))


class _Worker:
    """A decoding lane in a child process forked for one ``ber_sweep`` call.

    The child inherits the first lane's workspace ``ws`` through the fork,
    builds its own buffers around ws's tables, and decodes each task it reads
    from its pipe, ``(states, cfg, max_iter)``, writing back what
    ``_SpaWorkspace.decode`` returns and that task's ``noise_s`` and
    ``decode_s``, until the pipe closes. Tasks and results alternate, so
    neither side writes while the other is writing, and a result larger
    than the pipe's buffer cannot deadlock. The child leaves only through
    ``os._exit``: it never returns into the caller's stack, runs no
    ``atexit`` handler and flushes none of the parent's buffered output.
    A failure in the child is sent back as text; ``result`` raises
    ``RuntimeError`` for it and for a child that died.
    """

    def __init__(self, ws: _SpaWorkspace, others: list[_Worker]):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(task_w)
                os.close(result_r)
                # the parent's ends of earlier workers' pipes: were a copy
                # kept here, closing the parent's would not end those workers
                for w in others:
                    w.tasks.close()
                    w.results.close()
                with open(task_r, "rb") as tasks, open(result_w, "wb") as out:
                    _serve(_SpaWorkspace(None, len(ws.llr), share=ws), tasks,
                           out)
                code = 0
            except BaseException:  # noqa: BLE001 - _serve sent it to the parent
                pass
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self.tasks, self.results = open(task_w, "wb"), open(result_r, "rb")
        self.noise_s = self.decode_s = 0.0

    def send(self, states, cfg: ChannelConfig, max_iter: int) -> None:
        try:
            pickle.dump((states, cfg, max_iter), self.tasks,
                        pickle.HIGHEST_PROTOCOL)
            self.tasks.flush()
        except OSError as ex:  # a broken pipe: the child is gone
            raise RuntimeError(f"decoding worker {self.pid} died") from ex

    def result(self):
        try:
            out = pickle.load(self.results)
        except Exception as ex:  # noqa: BLE001 - a cut or garbled stream
            raise RuntimeError(f"decoding worker {self.pid} died") from ex
        if isinstance(out, str):
            raise RuntimeError(f"decoding worker {self.pid} failed: {out}")
        out, noise_s, decode_s = out
        self.noise_s += noise_s
        self.decode_s += decode_s
        return out

    def kill(self) -> None:
        """End the child without waiting for its task (on an error path)."""
        import signal  # loaded only here

        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:  # reaped elsewhere
            pass

    def close(self) -> None:
        """Close the pipes, which ends an idle child, and reap it."""
        for f in (self.tasks, self.results):
            try:
                f.close()
            except OSError:  # unsent task bytes of a dead child
                pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped elsewhere
            pass


def _serve(ws: _SpaWorkspace, tasks, out) -> None:
    """A worker's loop: decode every task read from ``tasks`` on ``ws`` and
    write the result to ``out``, until ``tasks`` reaches its end. A failure
    is written as text before it propagates."""
    try:
        while True:
            try:
                states, cfg, max_iter = pickle.load(tasks)
            except EOFError:
                return
            ws.noise_s = ws.decode_s = 0.0
            result = ws.decode(states, cfg, max_iter)
            pickle.dump((result, ws.noise_s, ws.decode_s), out,
                        pickle.HIGHEST_PROTOCOL)
            out.flush()
    except BaseException as ex:
        pickle.dump(f"{type(ex).__name__}: {ex}", out)
        out.flush()
        raise


def ber_sweep(H: BinaryMatrix, ebn0_list, rate: float,
              stop: StopRule | None = None, seed: int = ChannelConfig.seed,
              max_iter: int = _MAX_ITER) -> list[BerRecord]:
    """Monte-Carlo BER/FER per SNR point, early-stopping on frame errors.

    Frame f of SNR point i draws its noise from
    SeedSequence(seed, spawn_key=(i, f)), independent of scheduling; its
    LLRs are byte-identical to ``transmit`` with that generator. The PCG64
    states of up to ``_SEED_CHUNK`` frames (no more than the stop rule's
    frame cap leaves) are hashed in one numpy pass, and the first frame of
    each chunk is checked against numpy's own seeding. Each lane's reused
    PCG64 takes a frame's state and draws its row of the lane's batch, and
    the LLR scaling runs once per batch.

    Frames are decoded in batches, dealt to lanes in rounds (see the module
    docstring), and counted in frame order, so the sweep stops at exactly
    the frame that brings in the last frame error it needs and discards any
    decoded past it; the records do not depend on the batch size or the
    lane count. ``seed`` must be a non-negative integer; a ``bool`` is
    rejected.
    """
    max_iter = _integer(max_iter, "max_iter", 0)
    seed = _integer(seed, "seed", 0)
    cfgs = [ChannelConfig(e, rate) for e in _iterable(ebn0_list, "ebn0_list")]
    stop = stop or StopRule()
    # columns bound the batch too: a workspace holds O(edges + columns)
    # floats per frame, and H may have few or no edges
    edges = max(H.nnz, H.cols, 1)
    batch = max(1, _EDGE_BUDGET // edges)
    ws = _SpaWorkspace(H, batch)
    workers: list[_Worker] = []
    try:
        for _ in range(_lane_count(batch, stop.max_frames) - 1):
            workers.append(_Worker(ws, workers))
        # one lane sends no messages, so its share stays one batch
        cap = batch if not workers else max(
            1, _SHARE_BATCHES * _EDGE_BUDGET // edges // batch) * batch
        return [_sweep_point(ws, workers, batch, cap, cfg, stop,
                             _frame_states(seed, snr_idx, stop.max_frames),
                             max_iter)
                for snr_idx, cfg in enumerate(cfgs)]
    except BaseException:
        for w in workers:
            w.kill()
        raise
    finally:
        for w in workers:
            w.close()


def _sweep_point(ws, workers, batch, cap, cfg, stop, states,
                 max_iter) -> BerRecord:
    """One SNR point of ``ber_sweep``: rounds that deal each lane a share of
    whole batches, the first to ``ws`` in this process and the rest to
    ``workers``, counted in frame order."""
    bits = errors = frames = frame_errors = undetected = 0
    iterations = np.zeros(max_iter + 1, dtype=np.int64)
    lanes = [ws, *workers]
    for lane in lanes:
        lane.noise_s = lane.decode_s = 0.0
    floor = batch
    # a round lists and pipes no more states than one hashing pass holds
    limit = max(cap, _SEED_CHUNK) if workers else cap
    while frame_errors < stop.min_frame_errors and frames < stop.max_frames:
        left = stop.max_frames - frames
        need = stop.min_frame_errors - frame_errors
        share = _share(min(left, need), len(lanes), batch, floor, limit)
        floor = min(2 * floor, cap)
        # islice takes no state past a share
        chunks = [list(islice(states, min(share, left - start)))
                  for start in range(0, min(left, share * len(lanes)), share)]
        for w, chunk in zip(workers, chunks[1:]):
            w.send(chunk, cfg, max_iter)
        results = [ws.decode(chunks[0], cfg, max_iter)]
        results += [w.result() for w in workers[:len(chunks) - 1]]
        for nerr, converged, iters in results:
            count = len(nerr)
            # the frame errors still needed; the sweep ends at the last one
            need = stop.min_frame_errors - frame_errors
            failed = np.flatnonzero(nerr)[:need]
            used = int(failed[-1]) + 1 if failed.size == need else count
            bits += used * ws.n
            errors += int(nerr[:used].sum())
            frames += used
            frame_errors += failed.size
            undetected += int(converged[failed].sum())
            iterations += np.bincount(iters[:used], minlength=max_iter + 1)
            if frame_errors == stop.min_frame_errors:
                break
    return BerRecord(
        ebn0_db=cfg.ebn0_db, bits=bits, bit_errors=errors, frames=frames,
        frame_errors=frame_errors,
        stats={"iterations": iterations.tolist(),
               "undetected_errors": undetected,
               "noise_s": sum(lane.noise_s for lane in lanes),
               "decode_s": sum(lane.decode_s for lane in lanes)})


def _share(counted: int, lanes: int, batch: int, floor: int,
           limit: int) -> int:
    """Frames per lane in one round, in whole batches: an even split of the
    ``counted`` frames that the stop rule counts whatever they decode to,
    but no fewer than ``floor`` and no more than ``limit`` rounded up."""
    return -(-min(limit, max(floor, -(-counted // lanes))) // batch) * batch


def write_ber_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in records:
            w.writerow([r.ebn0_db, r.bits, r.bit_errors, r.frames,
                        r.frame_errors, f"{r.ber:.6e}", f"{r.fer:.6e}"])
