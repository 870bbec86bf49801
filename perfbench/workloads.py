"""The four benchmark workloads: their set-up, their rounds and their checks.

A round is a fixed batch of user-level operations. Every operation is one
call into fsscode: a ``ber_sweep`` point, or one in-process ``cli.main`` run
with its standard output captured. A workload builds its inputs from the
workload seed only, so equal seeds give equal inputs. Checks run outside the
timed operations and return an error message, or None when the output is
right.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("ber-short", "ber-long", "search", "analyze")

# Frames per ber_sweep call. ber-short sits at criterion 09's operating point
# where a frame costs ~170 us, ber-long at 2.5 dB where one costs ~22 ms; the
# counts keep one round near 0.2 s and 0.4 s, so a run holds many rounds.
SHORT_FRAMES = 1000
LONG_FRAMES = 16
# Budget of the random-order probe at m=40. Solve times there are heavy-tailed
# across seeds (3.9k to 111k expansions over seeds 0..19), so the probe runs
# a fixed budget: three restart tranches (2000 + 2000 + 1000 expansions).
PROBE_BUDGET = 5_000


@dataclass
class Op:
    """One timed call. ``part`` groups the ops of a round for reporting."""

    part: str
    label: str
    call: Callable[[], object]


def derived_seed(seed: int, round_index: int) -> int:
    """Non-negative per-round seed, a pure function of the workload seed."""
    return (seed % 1_000_003) * 100_003 + round_index


def run_cli(argv):
    """In-process ``fsscode`` run; returns (exit code, captured stdout)."""
    from fsscode import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def uniform_system(v, b):
    from fsscode import SetSystem

    return SetSystem(v=v, blocks=tuple(tuple(range(1, v + 1)) for _ in range(b)))


def reference_code(name, expand):
    """Parity-check matrix of a bundled girth code, as criterion 09 builds it."""
    from fsscode import load_paper_tables
    from fsscode.qc import assemble, shift_sequence_from_list

    row = next(r for r in load_paper_tables()["girth_codes"] if r["name"] == name)
    fss = uniform_system(row["v"], row["b"])
    return expand(assemble(fss, shift_sequence_from_list(fss, row["m"], row["shifts"])))


class BerWorkload:
    """``ber_sweep`` on one bundled code at one Eb/N0, a fixed frame count."""

    def __init__(self, seed, code, ebn0_db, frames, rate=0.7):
        self.seed, self.code, self.ebn0_db = seed, code, ebn0_db
        self.frames, self.rate = frames, rate
        self.H = None

    def setup(self, tracer):
        from fsscode import qc

        expand = qc.expand if tracer is None else tracer.wrap(qc.expand, "qc.expand")
        self.H = reference_code(self.code, expand)

    def ops(self, r, tracer=None):
        from fsscode import sim

        sweep = sim.ber_sweep if tracer is None else tracer.wrap(sim.ber_sweep,
                                                                 "sim.ber_sweep")
        stop = sim.StopRule(min_frame_errors=self.frames + 1, max_frames=self.frames)
        seed = derived_seed(self.seed, r)
        return [Op("ber", f"ber_sweep seed={seed}",
                   lambda: sweep(self.H, [self.ebn0_db], self.rate, stop=stop,
                                 seed=seed))]

    def check(self, op, out):
        (rec,) = out
        if rec.frames != self.frames:
            return f"{op.label}: {rec.frames} frames, asked for {self.frames}"
        if rec.bits != self.frames * self.H.cols:
            return f"{op.label}: {rec.bits} bits != frames * n"
        if not 0 <= rec.frame_errors <= rec.frames or rec.bit_errors > rec.bits:
            return f"{op.label}: inconsistent error counts {rec}"
        return None


class CliWorkload:
    """A fixed list of ``fsscode`` command lines, run in-process.

    ``{fss}`` in a command stands for a file holding ten parallel triples,
    the system behind every bundled girth code; ``{seed}`` for the round's
    derived seed.
    """

    def __init__(self, seed, workdir, commands):
        self.seed, self.commands = seed, commands
        self.fss_path = Path(workdir) / "triples.json"
        self._oracle_memo: dict[str, str | None] = {}

    def setup(self, tracer):
        from fsscode import cli, load_paper_tables  # noqa: F401 - set-up work

        self.fss = uniform_system(3, 10)
        self.fss_path.write_text(self.fss.to_json())
        self.table_rows = len(load_paper_tables()["girth_codes"])

    def ops(self, r, tracer=None):
        main = run_cli if tracer is None else tracer.wrap(run_cli, "cli.main")
        subst = {"{fss}": str(self.fss_path), "{seed}": str(derived_seed(self.seed, r))}
        out = []
        for part, argv in self.commands:
            argv = [subst.get(a, a) for a in argv]
            out.append(Op(part, " ".join(argv), lambda argv=argv: main(argv)))
        return out

    def check(self, op, out):
        rc, text = out
        words = op.label.split()
        if words[0] == "verify-table":
            passes = sum(line.startswith("PASS ") for line in text.splitlines())
            want = 1 if "--row" in words else self.table_rows
            if rc != 0 or passes != want:
                return f"{op.label}: exit {rc}, {passes} PASS lines, want {want}"
            return None
        doc = json.loads(text)
        want = int(_flag(words, "--girth"))
        if words[0] == "method2":
            girth = doc.get("verification", {}).get("girth", -1)
            if rc != 0 or doc["status"] != "ok" or (girth is not None and girth < want):
                return f"{op.label}: exit {rc}, status {doc['status']}, girth {girth}"
            return None
        budget = _flag(words, "--budget")
        if budget is not None and rc == 3 and doc["status"] == "unknown":
            if doc["expansions"] != int(budget):
                return f"{op.label}: stopped after {doc['expansions']} expansions"
            return None
        if rc != 0 or doc["status"] != "ok" or doc["verified_girth"] < want:
            return f"{op.label}: exit {rc}, status {doc['status']}"
        if text not in self._oracle_memo:
            self._oracle_memo[text] = self._oracle(doc, want)
        return self._oracle_memo[text] and f"{op.label}: {self._oracle_memo[text]}"

    def _oracle(self, doc, want):
        """Independent re-expansion and Tanner girth of the emitted shifts."""
        from fsscode.girth import tanner_girth
        from fsscode.qc import assemble, expand, shifts_from_json

        S = shifts_from_json(self.fss, json.dumps(doc))
        girth = tanner_girth(expand(assemble(self.fss, S)), cap=want).girth
        return None if girth is None or girth >= want else f"oracle girth {girth}"


def _flag(words, name):
    return words[words.index(name) + 1] if name in words else None


def _shifts(m, girth, *extra):
    return ["shifts", "--fss", "{fss}", "--m", str(m), "--girth", str(girth), *extra]


def _method2(v, K, girth):
    return ["method2", "--v", str(v), "--K", ",".join(map(str, K)),
            "--girth", str(girth)]


def _search(tiny):
    if tiny:  # the same code paths at a size the benchmark's tests run quickly
        return [("g8", _shifts(48, 8)),
                ("g8", _shifts(40, 8, "--order", "random", "--seed", "{seed}",
                               "--budget", "300")),
                ("g10", _shifts(72, 8))]
    return [("g8", _shifts(40, 8)),
            ("g8", _shifts(40, 8, "--order", "random", "--seed", "{seed}",
                           "--budget", str(PROBE_BUDGET))),
            ("g10", _shifts(477, 10))]


def _analyze(tiny):
    if tiny:
        return [("verify", ["verify-table", "--row", "fss-3-11-m11"]),
                ("construct", _method2(8, [3, 3, 3, 3], 12))]
    from fsscode import load_paper_tables

    profiles = load_paper_tables()["weight_profiles"]
    return [("verify", ["verify-table"])] + [
        ("construct", _method2(p["v"], p["K"], p["target_girth"])) for p in profiles]


def make(name, seed, workdir, tiny=False):
    """The workload called ``name``, with inputs built from ``seed``."""
    if name == "ber-short":
        return BerWorkload(seed, "fss-3-10-m36", 4.5, 5 if tiny else SHORT_FRAMES)
    if name == "ber-long":
        return BerWorkload(seed, "fss-3-10-m2570", 2.5, 1 if tiny else LONG_FRAMES)
    if name == "search":
        return CliWorkload(seed, workdir, _search(tiny))
    if name == "analyze":
        return CliWorkload(seed, workdir, _analyze(tiny))
    raise ValueError(f"unknown workload {name!r}")
