import os
import subprocess
import sys

import numpy as np
import pytest

from fsscode import reference_code
from fsscode.cli import main
from fsscode.qc import assemble, expand, read_alist, shift_sequence_from_list
from fsscode.setsystem import BinaryMatrix, validate_fss
from fsscode.sim import (
    BerRecord,
    ChannelConfig,
    StopRule,
    _lane_count,
    ber_sweep,
    spa_decode,
    transmit,
    write_ber_csv,
)

TABLE_312_M13 = [0, 0, 1, 2, 2, 1, 3, 5, 4, 8, 5, 10, 7, 3, 8, 11, 6, 12, 9, 4,
                 10, 7, 11, 9]

# 6 x 9, column degree 2, row degree 3, girth 8
ALIST_6X9 = ("9 6\n2 3\n" + " ".join(["2"] * 9) + "\n" + " ".join(["3"] * 6)
             + "\n1 4\n2 5\n3 6\n1 6\n2 4\n3 5\n1 5\n2 6\n3 4\n"
             "1 4 7\n2 5 8\n3 6 9\n1 5 9\n2 6 7\n3 4 8\n")


@pytest.fixture(scope="module")
def code_312():
    fss = validate_fss(3, [[1, 2, 3]] * 12)
    S = shift_sequence_from_list(fss, 13, TABLE_312_M13)
    return expand(assemble(fss, S))


@pytest.fixture(scope="module")
def code_360():
    return expand(reference_code("fss-3-10-m36"))


class _EdgeListWorkspace:
    """The row-major edge list the decoder used before its slot-major
    layout; kept here, with ``_edge_list_decode``, as the reference."""

    def __init__(self, H):
        edges = [(r, c) for r, sup in enumerate(H.row_support) for c in sup]
        self.rows = np.array([r for r, _ in edges], dtype=np.int64)
        self.cols = np.array([c for _, c in edges], dtype=np.int64)
        deg = np.array([len(s) for s in H.row_support], dtype=np.int64)
        self.row_start = np.concatenate(([0], np.cumsum(deg)[:-1]))
        self.nonempty = deg > 0
        self.n = H.cols
        self.m = H.rows


def _edge_list_syndrome_ok(ws, hard):
    parity = np.zeros(ws.m, dtype=np.int64)
    np.add.at(parity, ws.rows, hard[ws.cols])
    return not np.any(parity & 1)


def _edge_list_decode(ws, llr, max_iter):
    hard = (llr < 0).astype(np.int64)
    if _edge_list_syndrome_ok(ws, hard):
        return hard, True, 0
    v2c = llr[ws.cols].copy()
    for it in range(1, max_iter + 1):
        t = np.tanh(np.clip(v2c / 2.0, -30.0, 30.0))
        t = np.clip(t, -0.999999999999, 0.999999999999)
        t = np.where(np.abs(t) < 1e-300, 1e-300, t)
        prod = np.ones(ws.m)
        prod[ws.nonempty] = np.multiply.reduceat(t, ws.row_start)[ws.nonempty]
        c2v = 2.0 * np.arctanh(np.clip(prod[ws.rows] / t, -0.999999999999,
                                       0.999999999999))
        total = llr + np.bincount(ws.cols, weights=c2v, minlength=ws.n)
        hard = (total < 0).astype(np.int64)
        if _edge_list_syndrome_ok(ws, hard):
            return hard, True, it
        v2c = total[ws.cols] - c2v
    return hard, False, max_iter


class TestChannel:
    def test_noise_var_formula(self):
        cfg = ChannelConfig(ebn0_db=0.0, rate=0.5)
        assert cfg.noise_var == pytest.approx(1.0)

    def test_rate_scaling_consistent(self):
        lo = ChannelConfig(ebn0_db=2.0, rate=0.25)
        hi = ChannelConfig(ebn0_db=2.0, rate=0.5)
        assert hi.noise_var == pytest.approx(lo.noise_var / 2)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            ChannelConfig(ebn0_db=1.0, rate=0.0)

    def test_reproducible(self):
        cfg = ChannelConfig(ebn0_db=3.0, rate=0.7, seed=9)
        assert np.array_equal(transmit(64, cfg), transmit(64, cfg))

    def test_llr_mean(self):
        cfg = ChannelConfig(ebn0_db=2.0, rate=0.75, seed=3)
        llr = transmit(100_000, cfg)
        mean = 2.0 / cfg.noise_var
        stderr = np.sqrt(4.0 / cfg.noise_var) / np.sqrt(llr.size)
        assert abs(llr.mean() - mean) < 3 * stderr


class TestSpaDecode:
    def test_noiseless_converges_immediately(self, code_312):
        res = spa_decode(code_312, np.full(code_312.cols, 40.0))
        assert res.converged and res.iterations == 0
        assert not res.bits.any()

    def test_single_flip_corrected(self, code_312):
        llr = np.full(code_312.cols, 20.0)
        llr[17] = -20.0
        res = spa_decode(code_312, llr)
        assert res.converged
        assert not res.bits.any()

    def test_converged_means_zero_syndrome(self, code_312):
        rng = np.random.default_rng(4)
        H = code_312.to_dense()
        for _ in range(20):
            llr = transmit(code_312.cols,
                           ChannelConfig(1.0, 0.75, seed=int(rng.integers(1e9))))
            res = spa_decode(code_312, llr, max_iter=20)
            if res.converged:
                assert not ((H @ res.bits) % 2).any()

    def test_dimension_mismatch(self, code_312):
        with pytest.raises(ValueError):
            spa_decode(code_312, np.zeros(code_312.cols + 1))

    def test_negative_max_iter_rejected(self, code_312):
        for max_iter in (-1, 2.5, True, None):
            with pytest.raises(ValueError, match="max_iter"):
                spa_decode(code_312, np.full(code_312.cols, 1.0), max_iter=max_iter)

    def test_nan_llr_rejected(self, code_312):
        llr = np.full(code_312.cols, 1.0)
        llr[5] = np.nan
        for bad in (llr, np.full(code_312.cols, np.nan)):
            with pytest.raises(ValueError, match="NaN"):
                spa_decode(code_312, bad)


SPECIAL_LLRS = np.array([0.0, -0.0, 1e-310, -1e-310, 60.0, -60.0,
                         np.inf, -np.inf])
MAX_ITERS = (0, 1, 20, 50)


def _lifted(v, blocks, m, seed):
    fss = validate_fss(v, blocks)
    rng = np.random.default_rng(seed)
    shifts = rng.integers(m, size=len(fss.incidences)).tolist()
    return expand(assemble(fss, shift_sequence_from_list(fss, m, shifts)))


def _differential_code(name):
    if name == "n360":
        return expand(reference_code("fss-3-10-m36"))
    if name == "irregular":
        return _lifted(5, [[1, 2, 3], [2, 4], [1, 3, 4, 5], [2, 5], [1, 4],
                           [3, 5], [1, 2, 4, 5]], 7, seed=1)
    if name == "transposed":  # v > b, so expand returns the transpose
        return _lifted(6, [[1, 2, 3, 4], [2, 3, 5, 6], [1, 4, 5, 6],
                           [1, 2, 6]], 5, seed=2)
    # row 2 and column 4 are empty
    return BinaryMatrix(4, 6, [(0, 0), (0, 1), (0, 5), (1, 1), (1, 2),
                               (1, 3), (3, 0), (3, 2), (3, 3), (3, 5)])


def _llr_corpus(n, seed, frames):
    """Seeded AWGN frames at 1.0-4.5 dB, special values alone and spliced
    into AWGN frames, and one constant vector per special value."""
    rng = np.random.default_rng(seed)
    out = []
    for i, snr in enumerate((1.0, 2.0, 3.0, 4.5)):
        for f in range(frames):
            out.append(transmit(n, ChannelConfig(snr, 0.5, seed=100 * i + f)))
    for _ in range(6):
        out.append(rng.choice(SPECIAL_LLRS, size=n))
        llr = transmit(n, ChannelConfig(1.5, 0.5, seed=int(rng.integers(1e9))))
        hit = rng.random(n) < 0.15
        llr[hit] = rng.choice(SPECIAL_LLRS, size=int(hit.sum()))
        out.append(llr)
    out += [np.full(n, x) for x in SPECIAL_LLRS]
    return out


class TestSlotMajorDifferential:
    """The slot-major decoder against the edge-list reference: equal bits,
    ``converged`` and ``iterations`` on every frame of a fixed corpus."""

    @pytest.mark.parametrize("name, frames", [
        ("n360", 15), ("irregular", 25), ("transposed", 25),
        ("empty-row-col", 25),
    ])
    def test_matches_edge_list_reference(self, name, frames):
        # each decode builds its own workspace; TestBatchDifferential reuses
        # one across calls
        H = _differential_code(name)
        ref = _EdgeListWorkspace(H)
        outcomes, mismatches = set(), []
        for k, llr in enumerate(_llr_corpus(H.cols, 7, frames)):
            for max_iter in MAX_ITERS:
                want = _edge_list_decode(ref, llr, max_iter)
                got = spa_decode(H, llr, max_iter=max_iter)
                if not (got.bits.dtype == want[0].dtype
                        and np.array_equal(got.bits, want[0])
                        and (got.converged, got.iterations) == want[1:]):
                    mismatches.append((k, max_iter))
                outcomes.add((want[1], want[2] > 1))
        assert mismatches == []
        # the corpus reaches early exits, later convergence and failures
        assert {(True, False), (True, True), (False, True)} <= outcomes

    def test_corpus_shapes(self):
        irregular = _differential_code("irregular")
        assert len({len(s) for s in irregular.row_support}) > 1
        assert len({len(s) for s in irregular.col_support}) > 1
        transposed = _differential_code("transposed")
        assert (transposed.rows, transposed.cols) == (20, 30)
        empty = _differential_code("empty-row-col")
        assert empty.row_support[2] == [] and empty.col_support[4] == []

    @pytest.mark.parametrize("name", ["n360", "irregular", "transposed",
                                      "empty-row-col"])
    def test_layout_orders(self, name):
        # slots follow each row's columns; each column lists its slots in
        # ascending row order, the order bincount summed in
        from fsscode.sim import _SpaWorkspace

        H = _differential_code(name)
        ws = _SpaWorkspace(H)
        for r, sup in enumerate(H.row_support):
            assert ws.slot_col[:len(sup), r].tolist() == sup
            assert (ws.slot_col[len(sup):, r] == H.cols).all()
        for c, sup in enumerate(H.col_support):
            slots = ws.col_slot[:len(sup), c]
            assert (slots % H.rows).tolist() == sup
            assert (ws.slot_col.reshape(-1)[slots] == c).all()
            assert (ws.col_slot[len(sup):, c] == ws.slot_col.size).all()

    def test_no_edges(self):
        H = BinaryMatrix(3, 4, [])
        llr = np.array([1.0, -2.0, 0.0, -0.0])
        res = spa_decode(H, llr)
        assert res.converged and res.iterations == 0
        assert res.bits.tolist() == [0, 1, 0, 0]


def _batched(frames, sizes):
    """Split ``frames`` into consecutive batches whose sizes cycle through
    ``sizes``."""
    out, i, k = [], 0, 0
    while i < len(frames):
        out.append(frames[i:i + sizes[k % len(sizes)]])
        i += len(out[-1])
        k += 1
    return out


class TestBatchDifferential:
    """The frame-batched kernel against the edge-list reference: batches
    that mix early exits, later convergence and ``max_iter`` failures give
    every frame the outcome it has when decoded alone."""

    @pytest.mark.parametrize("name, frames", [
        ("n360", 15), ("irregular", 25), ("transposed", 25),
        ("empty-row-col", 25),
    ])
    def test_batches_match_edge_list_reference(self, name, frames):
        from fsscode.sim import _SpaWorkspace, _decode_frames

        H = _differential_code(name)
        corpus = _llr_corpus(H.cols, 7, frames)
        # interleave the AWGN frames with the special-value ones
        order = np.random.default_rng(3).permutation(len(corpus))
        corpus = [corpus[i] for i in order]
        ref, ws = _EdgeListWorkspace(H), _SpaWorkspace(H, frames=32)
        mismatches, mixed = [], 0
        for max_iter in MAX_ITERS:
            want = [_edge_list_decode(ref, llr, max_iter) for llr in corpus]
            pos = 0
            for batch in _batched(corpus, (32, 1, 7, 13, 2)):
                ws.llr[:len(batch)] = batch
                _decode_frames(ws, len(batch), max_iter)
                kinds = set()
                for f in range(len(batch)):
                    bits, conv, its = want[pos + f]
                    got_bits = ws.bits[f].astype(np.int64)
                    if not (np.array_equal(got_bits, bits)
                            and (bool(ws.converged[f]), int(ws.iterations[f]))
                            == (conv, its)):
                        mismatches.append((max_iter, pos + f))
                    kinds.add((conv, its > 0))
                # converged at iteration 0, converged later, ran to max_iter
                mixed += {(True, False), (True, True), (False, True)} <= kinds
                pos += len(batch)
        assert mismatches == []
        assert mixed  # some batch held all three kinds of frame

    def test_finished_frames_stay_finished(self):
        # a frame that converges at iteration 0 next to frames that run to
        # max_iter keeps its own result
        from fsscode.sim import _SpaWorkspace, _decode_frames

        H = _differential_code("n360")
        noisy = [transmit(H.cols, ChannelConfig(-3.0, 0.5, seed=s))
                 for s in (1, 2)]
        ws = _SpaWorkspace(H, frames=3)
        ws.llr[:3] = [noisy[0], np.full(H.cols, 5.0), noisy[1]]
        _decode_frames(ws, 3, 4)
        assert ws.converged.tolist() == [False, True, False]
        assert ws.iterations.tolist() == [4, 0, 4]
        assert not ws.bits[1].any()
        ref = _EdgeListWorkspace(H)
        for f in (0, 2):
            assert np.array_equal(ws.bits[f],
                                  _edge_list_decode(ref, noisy[f // 2], 4)[0])


class TestBatchSize:
    """``ber_sweep`` counts frames in frame order whatever the batch size,
    so records and counters do not depend on it."""

    @staticmethod
    def _sweeps(H, batch, monkeypatch):
        from fsscode import sim

        if batch is not None:
            monkeypatch.setattr(sim, "_EDGE_BUDGET", batch * max(H.nnz, H.cols))
        out = []
        for stop in (StopRule(23, 400), StopRule(9, 131)):
            recs = ber_sweep(H, [1.0, 2.5, 4.0], rate=0.75, stop=stop,
                             seed=11, max_iter=20)
            for r in recs:
                assert r.stats.pop("noise_s") >= 0.0
                assert r.stats.pop("decode_s") >= 0.0
            out.append(recs)
        return out

    def test_records_and_stats_equal_across_batch_sizes(self, code_312,
                                                        monkeypatch):
        from fsscode import sim

        default = sim._EDGE_BUDGET // code_312.nnz
        base = self._sweeps(code_312, 1, monkeypatch)
        for batch in (2, 7, None, 64):
            got = self._sweeps(code_312, batch, monkeypatch)
            assert got == base
            assert [[r.stats for r in recs] for recs in got] == \
                [[r.stats for r in recs] for recs in base]
        # the parameters stop some points at the k-th error and some at
        # max_frames, in the middle of a batch for every size above 1
        recs = [r for sweep in base for r in sweep]
        by_errors = [r.frames for r in recs if r.frame_errors in (23, 9)]
        by_cap = [r.frames for r in recs if r.frames in (400, 131)]
        assert by_errors and by_cap
        for batch in (2, 7, default, 64):
            assert any(f % batch for f in by_errors)
            assert any(f % batch for f in by_cap)


def _usable_cpus():
    return len(os.sched_getaffinity(0))


def _sweep_without_timings(*args, **kwargs):
    recs = ber_sweep(*args, **kwargs)
    for r in recs:
        assert r.stats.pop("noise_s") >= 0.0
        assert r.stats.pop("decode_s") >= 0.0
    return recs, [r.stats for r in recs]


def _pinned_lanes(monkeypatch, lanes):
    """Make ``ber_sweep`` use at most ``lanes`` lanes, never more than the
    default count allows."""
    from fsscode import sim

    monkeypatch.setattr(sim, "_lane_count", lambda batch, max_frames: min(
        lanes, _lane_count(batch, max_frames)))


def _fork_spy(monkeypatch, fail=None, in_child=True):
    """Record the pid of every child ``os.fork`` starts. ``fail`` (if given)
    runs before every decoding kernel call in the children, or in the
    calling process when ``in_child`` is false."""
    from fsscode import sim

    pids, fork, parent = [], os.fork, os.getpid()

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def kernel(ws, count, max_iter):
        if (os.getpid() != parent) == in_child:
            fail()
        decode(ws, count, max_iter)

    decode = sim._decode_frames
    monkeypatch.setattr(os, "fork", spy)
    if fail is not None:
        monkeypatch.setattr(sim, "_decode_frames", kernel)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _no_fork():
    raise AssertionError("a worker was forked")


two_cpus = pytest.mark.skipif(_usable_cpus() < 2, reason="two lanes need two CPUs")


class TestLanes:
    """``ber_sweep`` on several decoding lanes, worker processes forked for
    the call, counts their frames in frame order, so records and counters
    equal a one-lane sweep's. No test starts more lanes than this process
    may run on."""

    @two_cpus
    def test_two_lanes_equal_one(self, code_360, monkeypatch):
        from fsscode import sim

        deals, share, sweep_point = [], sim._share, sim._sweep_point

        def spy_share(*args):
            deals[-1].append(share(*args))
            return deals[-1][-1]

        def spy_point(*args):
            deals.append([])
            return sweep_point(*args)

        monkeypatch.setattr(sim, "_share", spy_share)
        monkeypatch.setattr(sim, "_sweep_point", spy_point)
        last_rounds, shares_seen = [], []
        for stop, seed in ((StopRule(7, 90), 1), (StopRule(12, 400), 1),
                           (StopRule(3, 50), 2)):
            got = []
            for lanes in (1, 2):
                _pinned_lanes(monkeypatch, lanes)
                deals.clear()
                got.append(_sweep_without_timings(
                    code_360, [2.0, 2.5, 3.0, 3.5], rate=0.7, stop=stop,
                    seed=seed, max_iter=20))
            assert got[0] == got[1]
            # where each two-lane point's last round began, and its share
            shares_seen += deals
            for rec, shares in zip(got[1][0], deals):
                start = 0
                for s in shares[:-1]:
                    start += min(stop.max_frames - start, 2 * s)
                last_rounds.append((rec, stop, start, shares[-1]))
        # stops inside the first lane's share and inside the second's, and
        # at max_frames in the middle of a round
        by_errors = [(r.frames - 1 - start, s) for r, stop, start, s
                     in last_rounds if r.frame_errors == stop.min_frame_errors]
        assert any(k < s for k, s in by_errors)
        assert any(s <= k < 2 * s for k, s in by_errors)
        assert any(r.frames == stop.max_frames
                   and r.frames - start < 2 * s
                   for r, stop, start, s in last_rounds)
        # while few errors are needed, the share doubles from one batch
        batch = sim._EDGE_BUDGET // code_360.nnz
        assert [batch, 2 * batch, 4 * batch, 8 * batch] in shares_seen

    def test_long_code_default_lanes_equal_one(self, monkeypatch):
        from fsscode import sim

        H = expand(reference_code("fss-3-10-m2570"))
        assert sim._EDGE_BUDGET // H.nnz == 0  # a frame fills a batch alone
        args = (H, [2.5], 0.7)
        kwargs = {"stop": StopRule(3, 24), "seed": 5}
        default = _sweep_without_timings(*args, **kwargs)
        _pinned_lanes(monkeypatch, 1)
        assert _sweep_without_timings(*args, **kwargs) == default
        assert default[0][0].frames == 24

    def test_dealing_rule(self):
        from fsscode.sim import _share

        # an even split of the frames counted anyway, in whole batches
        assert _share(1000, 2, 24, 24, 1024) == 504
        assert _share(17, 2, 1, 1, 1024) == 9
        assert _share(100, 3, 24, 24, 1024) == 48
        # while few errors are needed, the doubling floor sets the share
        assert _share(3, 2, 24, 96, 1024) == 96
        assert _share(0, 2, 24, 24, 1024) == 24
        # the limit bounds a round, in whole batches; one lane's is one batch
        assert _share(10**6, 2, 24, 24, 1024) == 1032
        assert _share(100, 1, 24, 24, 24) == 24

    @pytest.mark.parametrize("case", ["one-cpu", "live-thread", "one-batch"])
    def test_forks_nothing(self, code_360, monkeypatch, case):
        import threading

        from fsscode import sim

        stop = StopRule(5, 24 if case == "one-batch" else 200)
        args, kwargs = (code_360, [2.0, 3.0], 0.7), {"stop": stop, "seed": 3}
        want = _sweep_without_timings(*args, **kwargs)
        monkeypatch.setattr(os, "fork", _no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "live-thread":
            thread.start()
        try:
            assert sim._lane_count(sim._EDGE_BUDGET // code_360.nnz,
                                   stop.max_frames) == 1
            assert _sweep_without_timings(*args, **kwargs) == want
        finally:
            release.set()
            if thread.ident is not None:
                thread.join(timeout=10)
                assert not thread.is_alive()

    @two_cpus
    def test_no_worker_outlives_a_sweep(self, code_360, monkeypatch):
        from fsscode import sim

        pids = _fork_spy(monkeypatch)
        recs = ber_sweep(code_360, [2.0, 3.0], 0.7, stop=StopRule(5, 200),
                         seed=3)
        lanes = sim._lane_count(sim._EDGE_BUDGET // code_360.nnz, 200)
        assert len(pids) == lanes - 1 >= 1
        assert all(r.frame_errors == 5 for r in recs)
        _assert_reaped(pids)

    @two_cpus
    @pytest.mark.parametrize("how", ["raises", "exits"])
    def test_failed_worker_raises_and_is_reaped(self, code_360, monkeypatch,
                                                how):
        def fail():
            if how == "exits":
                os._exit(3)
            raise ValueError("kernel failed")

        pids = _fork_spy(monkeypatch, fail)
        want = "failed: ValueError: kernel failed" if how == "raises" else "died"
        with pytest.raises(RuntimeError, match=want):
            ber_sweep(code_360, [2.0], 0.7, stop=StopRule(5, 200), seed=3)
        assert pids
        _assert_reaped(pids)

    @two_cpus
    def test_caller_failure_kills_and_reaps_workers(self, code_360,
                                                    monkeypatch):
        # the calling process fails while its workers still decode their
        # shares: the sweep re-raises its error and leaves no child behind
        def interrupt():
            raise KeyboardInterrupt

        pids = _fork_spy(monkeypatch, interrupt, in_child=False)
        with pytest.raises(KeyboardInterrupt):
            ber_sweep(code_360, [2.0], 0.7, stop=StopRule(1001, 1000), seed=3)
        assert pids
        _assert_reaped(pids)

    @two_cpus
    @pytest.mark.parametrize("how", ["raise ValueError('kernel failed')",
                                     "os._exit(3)"], ids=["raises", "exits"])
    def test_failed_worker_leaves_the_caller_once(self, how):
        # stdout is a pipe, so "before" sits in the parent's buffer when the
        # workers fork: a child that flushed it, or that returned into the
        # script, would print a line twice
        from fsscode import sim

        code = (
            "import os\n"
            "from fsscode import reference_code, sim\n"
            "from fsscode.qc import expand\n"
            "H = expand(reference_code('fss-3-10-m36'))\n"
            "parent, decode = os.getpid(), sim._decode_frames\n"
            "def kernel(ws, count, max_iter):\n"
            "    if os.getpid() != parent:\n"
            f"        {how}\n"
            "    decode(ws, count, max_iter)\n"
            "sim._decode_frames = kernel\n"
            "print('before')\n"
            "try:\n"
            "    sim.ber_sweep(H, [3.0], 0.7, stop=sim.StopRule(5, 200))\n"
            "except RuntimeError as ex:\n"
            "    print('raised', str(ex).startswith('decoding worker'))\n"
            "print('after')\n")
        src = os.path.dirname(os.path.dirname(sim.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before\nraised True\nafter\n"

    def test_lanes_share_the_tables_and_nothing_writable(self, code_360):
        # a worker builds its buffers around the tables it inherits; the
        # workspaces of one process must not share a writable buffer either
        from fsscode.sim import _SpaWorkspace

        first = _SpaWorkspace(code_360, frames=4)
        other = _SpaWorkspace(code_360, frames=4, share=first)
        tables = ("slot_col", "col_slot", "pad")
        for name in tables:
            assert getattr(other, name) is getattr(first, name), name

        def buffers(ws):
            return [(name, x) for name, x in vars(ws).items()
                    if isinstance(x, np.ndarray) and name not in tables]

        assert len(buffers(first)) == len(buffers(other)) >= 10
        for a, x in buffers(first):
            for b, y in buffers(other):
                assert not np.shares_memory(x, y), (a, b)
        assert other.bitgen is not first.bitgen
        assert other.rng is not first.rng

    def test_import_and_sweep_load_no_module(self):
        from fsscode import sim

        # the workers need no pool module: neither the import nor a sweep on
        # every usable CPU loads one, and the sweep loads nothing at all
        code = (
            "import sys\n"
            "from fsscode import reference_code\n"
            "from fsscode.qc import expand\n"
            "from fsscode.sim import StopRule, ber_sweep\n"
            "pools = {'concurrent.futures', 'multiprocessing'}\n"
            "assert not pools & set(sys.modules)\n"
            "H = expand(reference_code('fss-3-10-m36'))\n"
            "import numpy.random  # numpy loads it on first use\n"
            "loaded = set(sys.modules)\n"
            "ber_sweep(H, [3.0], 0.7, stop=StopRule(5, 200))\n"
            "assert set(sys.modules) == loaded, set(sys.modules) - loaded\n")
        src = os.path.dirname(os.path.dirname(sim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def _numpy_state(seed, snr_idx, frame):
    ref = np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(snr_idx, frame))).state["state"]
    return ref["state"], ref["inc"]


class TestBatchedSeeding:
    """``ber_sweep`` works out the PCG64 states of a chunk of frames with
    numpy's SeedSequence hash on uint32 columns; every frame must get the
    state, and so the LLRs, that numpy's own seeding and ``transmit`` give."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3,
                                      10**11 + 7, 2**128 + 5])
    @pytest.mark.parametrize("snr_idx", [0, 3])
    def test_states_match_numpy(self, seed, snr_idx):
        from fsscode.sim import _pcg64_states

        for start, count in ((0, 3), (2**31 - 1, 2)):
            got = _pcg64_states(seed, snr_idx, start, count)
            assert got == [_numpy_state(seed, snr_idx, f)
                           for f in range(start, start + count)]

    @pytest.mark.parametrize("seed", [0, 10**11 + 7])
    def test_chunk_straddling_a_frame_word(self, seed):
        # frames from 2**32 on carry a second spawn-key word
        from fsscode.sim import _pcg64_states

        start = 2**32 - 3
        assert _pcg64_states(seed, 1, start, 6) == [
            _numpy_state(seed, 1, f) for f in range(start, start + 6)]

    def test_mismatch_with_numpy_raises(self, monkeypatch):
        from fsscode import sim

        monkeypatch.setattr(sim, "_PCG_MULT", sim._PCG_MULT + 2)
        with pytest.raises(RuntimeError, match="no longer matches"):
            sim._pcg64_states(5, 0, 0, 4)

    def test_llr_rows_equal_transmit(self, code_360, monkeypatch):
        # 1,100 frames at each of two points: a chunk boundary in each
        from fsscode import sim

        rows = []
        decode = sim._decode_frames

        def capture(ws, count, max_iter):
            rows.append(ws.llr[:count].copy())
            decode(ws, count, max_iter)

        monkeypatch.setattr(sim, "_decode_frames", capture)
        # a worker's rows would be captured in the worker
        _pinned_lanes(monkeypatch, 1)
        seed, snrs, frames = 10**11 + 7, (1.5, 4.5), 1100
        recs = ber_sweep(code_360, snrs, rate=0.7,
                         stop=StopRule(frames + 1, frames), seed=seed)
        assert [r.frames for r in recs] == [frames, frames]
        got = np.concatenate(rows)
        assert got.shape == (2 * frames, code_360.cols)
        for i, ebn0 in enumerate(snrs):
            cfg = ChannelConfig(ebn0, 0.7)
            for f in range(frames):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(seed, spawn_key=(i, f))))
                want = transmit(code_360.cols, cfg, rng=rng)
                assert got[i * frames + f].tobytes() == want.tobytes(), (i, f)
        # transmit's draw is normal(0.0, sigma) rescaled, bit for bit
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(1, frames - 1))))
        y = rng.normal(0.0, cfg._sigma, size=code_360.cols) + 1.0
        assert (2.0 * y / cfg.noise_var).tobytes() == got[-1].tobytes()

    def test_stop_mid_chunk_restarts_next_point_at_frame_0(self, code_360,
                                                           monkeypatch):
        from fsscode import sim

        chunks = []
        states = sim._pcg64_states

        def record(seed, snr_idx, start, count):
            chunks.append((snr_idx, start, count))
            return states(seed, snr_idx, start, count)

        monkeypatch.setattr(sim, "_pcg64_states", record)
        stop = StopRule(5, 1500)
        recs = ber_sweep(code_360, [1.0, 2.5], rate=0.7, stop=stop, seed=4)
        assert all(r.frame_errors == 5 and r.frames < sim._SEED_CHUNK
                   for r in recs)
        assert chunks == [(0, 0, sim._SEED_CHUNK), (1, 0, sim._SEED_CHUNK)]
        # a per-frame replay seeded by numpy gives the same records
        for i, rec in enumerate(recs):
            cfg = ChannelConfig(rec.ebn0_db, 0.7)
            bits = errors = frame_errors = frames = 0
            while frame_errors < stop.min_frame_errors:
                rng = np.random.default_rng(
                    np.random.SeedSequence(4, spawn_key=(i, frames)))
                out = spa_decode(code_360, transmit(code_360.cols, cfg, rng=rng))
                bits += code_360.cols
                errors += int(out.bits.sum())
                frame_errors += bool(out.bits.any())
                frames += 1
            assert (rec.bits, rec.bit_errors, rec.frames) == (bits, errors,
                                                              frames)


class TestBerSweep:
    def test_empty_snr_list(self, code_312):
        assert ber_sweep(code_312, [], rate=0.75) == []

    def test_monotone_in_snr(self, code_312):
        recs = ber_sweep(code_312, [1.0, 5.0], rate=0.75,
                         stop=StopRule(40, 3000), seed=1)
        assert recs[1].ber <= recs[0].ber

    def test_reproducible(self, code_312):
        stop = StopRule(10, 200)
        r1 = ber_sweep(code_312, [2.0], rate=0.75, stop=stop, seed=5)
        r2 = ber_sweep(code_312, [2.0], rate=0.75, stop=stop, seed=5)
        assert r1 == r2

    def test_stop_rule_frames_cap(self, code_312):
        recs = ber_sweep(code_312, [10.0], rate=0.75,
                         stop=StopRule(100, 50), seed=2)
        assert recs[0].frames == 50

    def test_csv_format(self, tmp_path):
        rec = BerRecord(ebn0_db=2.0, bits=1000, bit_errors=10, frames=10,
                        frame_errors=4)
        path = tmp_path / "ber.csv"
        write_ber_csv([rec], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "ebn0_db,bits,bit_errors,frames,frame_errors,ber,fer"
        assert lines[1].startswith("2.0,1000,10,10,4,")

    def test_record_rates(self):
        rec = BerRecord(ebn0_db=0.0, bits=200, bit_errors=3, frames=20,
                        frame_errors=2)
        assert rec.ber == pytest.approx(0.015)
        assert rec.fer == pytest.approx(0.1)


class TestSweepPinned:
    """Sweep outcomes pinned to values taken before the slot-major decoder."""

    def test_records_at_error_points(self, code_360):
        recs = ber_sweep(code_360, [2.5, 3.5], rate=0.7,
                         stop=StopRule(30, 3000), seed=7)
        got = [(r.bits, r.bit_errors, r.frames, r.frame_errors) for r in recs]
        assert got == [(67680, 535, 188, 30), (1080000, 216, 3000, 15)]
        for r in recs:
            assert sum(r.stats["iterations"]) == r.frames
            assert len(r.stats["iterations"]) == 51

    def test_simulate_csv_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.alist").write_text(ALIST_6X9)
        code = main(["simulate", "--alist", "h.alist", "--snr", "0,2.5,5",
                     "--rate", "0.34", "--seed", "3",
                     "--min-frame-errors", "20", "--max-frames", "400",
                     "--max-iter", "20", "-o", "ber.csv"])
        assert code == 0
        assert capsys.readouterr().out == (
            '{"points": 3, "seed": 3, "output": "ber.csv"}\n')
        assert (tmp_path / "ber.csv").read_bytes() == (
            b"ebn0_db,bits,bit_errors,frames,frame_errors,ber,fer\r\n"
            b"0.0,387,76,43,20,1.963824e-01,4.651163e-01\r\n"
            b"2.5,1710,75,190,20,4.385965e-02,1.052632e-01\r\n"
            b"5.0,3600,16,400,4,4.444444e-03,1.000000e-02\r\n")


class TestSweepStats:
    def test_counters_match_a_replay(self, tmp_path):
        path = tmp_path / "h.alist"
        path.write_text(ALIST_6X9)
        H = read_alist(path)
        rec, = ber_sweep(H, [0.0], rate=0.34, stop=StopRule(20, 400), seed=3,
                         max_iter=20)
        hist, undetected = [0] * 21, 0
        cfg = ChannelConfig(0.0, 0.34, seed=3)
        for f in range(rec.frames):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=3, spawn_key=(0, f)))
            out = spa_decode(H, transmit(H.cols, cfg, rng=rng), max_iter=20)
            hist[out.iterations] += 1
            undetected += bool(out.converged and out.bits.any())
        phases = [rec.stats.pop("noise_s"), rec.stats.pop("decode_s")]
        assert all(isinstance(t, float) and t > 0.0 for t in phases)
        assert rec.stats == {"iterations": hist,
                             "undetected_errors": undetected}
        assert 0 < undetected <= rec.frame_errors

    def test_stats_stay_out_of_equality_and_csv(self, tmp_path):
        a = BerRecord(2.0, 100, 3, 10, 2, stats={"undetected_errors": 1})
        b = BerRecord(2.0, 100, 3, 10, 2)
        assert a == b
        write_ber_csv([a], tmp_path / "a.csv")
        write_ber_csv([b], tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestBoundaries:
    @pytest.mark.parametrize("kwargs", [
        {"min_frame_errors": 0}, {"min_frame_errors": -3}, {"max_frames": -1},
        {"min_frame_errors": 1.5}, {"min_frame_errors": True},
        {"max_frames": 2.5}, {"max_frames": True}, {"max_frames": None},
    ])
    def test_stop_rule_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            StopRule(**kwargs)

    def test_stop_rule_zero_frames_allowed(self, code_312):
        rec, = ber_sweep(code_312, [2.0], rate=0.75, stop=StopRule(1, 0))
        assert (rec.frames, rec.bits) == (0, 0)

    @pytest.mark.parametrize("seed", [-1, True, False, 1.5, 2.0, "3", None])
    def test_sweep_rejects_bad_seed(self, code_312, monkeypatch, seed):
        from fsscode import sim

        monkeypatch.setattr(sim, "_frame_states", None)  # no frame is made
        with pytest.raises(ValueError, match="seed"):
            ber_sweep(code_312, [2.0], rate=0.75, stop=StopRule(1, 5),
                      seed=seed)

    @pytest.mark.parametrize("seed", [-1, True, False, 1.5, 2.0, "3", None])
    def test_channel_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ChannelConfig(ebn0_db=2.0, rate=0.5, seed=seed)

    def test_channel_takes_numpy_integer_seed(self):
        assert np.array_equal(transmit(16, ChannelConfig(2.0, 0.5, seed=np.uint64(9))),
                              transmit(16, ChannelConfig(2.0, 0.5, seed=9)))

    def test_sweep_takes_numpy_integer_seed(self, code_312):
        stop = StopRule(3, 50)
        assert ber_sweep(code_312, [2.0], rate=0.75, stop=stop,
                         seed=np.uint64(9)) == \
            ber_sweep(code_312, [2.0], rate=0.75, stop=stop, seed=9)

    def test_sweep_rejects_negative_max_iter(self, code_312):
        for max_iter in (-1, 2.5, True, None):
            with pytest.raises(ValueError, match="max_iter"):
                ber_sweep(code_312, [2.0], rate=0.75, max_iter=max_iter)

    @pytest.mark.parametrize("ebn0", [np.nan, np.inf, -np.inf])
    def test_non_finite_snr_rejected(self, code_312, ebn0):
        with pytest.raises(ValueError, match="ebn0_db"):
            ChannelConfig(ebn0_db=ebn0, rate=0.5)
        with pytest.raises(ValueError, match="ebn0_db"):
            ber_sweep(code_312, [2.0, ebn0], rate=0.75, stop=StopRule(1, 5))

    @pytest.mark.parametrize("ebn0, rate, field", [
        (1.0, "0.5", "rate"), ("1", 0.5, "ebn0_db"), (None, 0.5, "ebn0_db"),
        (1.0, None, "rate"), (True, 0.5, "ebn0_db"), (1.0, True, "rate"),
        (1.0, np.True_, "rate"),
    ])
    def test_channel_rejects_non_real(self, code_312, ebn0, rate, field):
        with pytest.raises(ValueError, match=field):
            ChannelConfig(ebn0_db=ebn0, rate=rate)
        with pytest.raises(ValueError, match=field):
            ber_sweep(code_312, [ebn0], rate=rate, stop=StopRule(1, 5))

    def test_channel_takes_numpy_reals(self):
        assert np.array_equal(
            transmit(16, ChannelConfig(np.float64(2.0), np.int64(1), seed=3)),
            transmit(16, ChannelConfig(2.0, 1.0, seed=3)))

    def test_infinite_llrs_allowed(self, code_312):
        llr = np.full(code_312.cols, np.inf)
        llr[3] = -np.inf
        res = spa_decode(code_312, llr, max_iter=5)
        assert res.iterations >= 1

    @pytest.mark.parametrize("flag, value", [
        ("--min-frame-errors", "0"), ("--max-frames", "-1"),
        ("--max-iter", "-1"), ("--snr", "nan"), ("--snr", "2,inf"),
        ("--seed", "-1"),
    ])
    def test_simulate_exits_1_with_json_error(self, capsys, tmp_path, flag,
                                              value):
        import json

        (tmp_path / "h.alist").write_text(ALIST_6X9)
        out_csv = tmp_path / "ber.csv"
        code = main(["simulate", "--alist", str(tmp_path / "h.alist"),
                     "--snr", "2", "--rate", "0.34", flag, value,
                     "-o", str(out_csv)])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert json.loads(out.err)["error"] == "ValueError"
        assert not out_csv.exists()

