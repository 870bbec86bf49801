import inspect
import json
import os
import subprocess
import sys
import time

import pytest

from fsscode import load_paper_tables, reference_code
from fsscode.cli import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNKNOWN,
    build_parser,
    main,
)
from fsscode.construct import method1
from fsscode.girth import inevitable_girth, tanner_girth
from fsscode.qc import expand, write_alist
from fsscode.setsystem import validate_fss
from fsscode.shiftsearch import SearchPolicy
from fsscode.sim import ber_sweep


@pytest.fixture
def fss_file(tmp_path):
    path = tmp_path / "fss.json"
    path.write_text(validate_fss(2, [[1, 2]] * 3).to_json())
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStatsGirth:
    def test_stats(self, capsys, fss_file):
        code, out, _ = _run(capsys, ["stats", "--fss", fss_file])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["K"] == [2, 2, 2]
        assert doc["R"] == [3, 3]

    def test_girth(self, capsys, fss_file):
        code, out, _ = _run(capsys, ["girth", "--fss", fss_file])
        assert code == EXIT_OK
        assert json.loads(out)["girth"] == 12

    def test_girth_unbounded(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(validate_fss(3, [[1, 2, 3]]).to_json())
        code, out, _ = _run(capsys, ["girth", "--fss", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["girth"] == "unbounded"

    def test_girth_cap_above_walk_bound_exits_1(self, capsys, tmp_path):
        # the triangle has no balanced walk: a cap of 2000 once recursed
        # 2000 deep and escaped as RecursionError
        path = tmp_path / "triangle.json"
        path.write_text(validate_fss(3, [[1, 2], [2, 3], [1, 3]]).to_json())
        code, out, err = _run(capsys, ["girth", "--fss", str(path),
                                       "--cap", "2000"])
        assert (code, out) == (EXIT_ERROR, "")
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith("cap must be")

    def test_missing_file_is_error_json(self, capsys):
        code, _, err = _run(capsys, ["stats", "--fss", "/nonexistent.json"])
        assert code == EXIT_ERROR
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("doc", [
        {"v": 3, "blocks": [[True, 2, 3], [1, 2, 3]]},
        {"v": 3, "t": True, "blocks": [[1, 2, 3]]},
        {"blocks": [[1, 2, 3]]},
        # these once failed in list() or sorted() with a TypeError
        {"v": 3, "blocks": 5},
        {"v": 3, "blocks": [5]},
        {"v": 3, "blocks": [["a", 1, "a"]]},
    ], ids=["bool-point", "bool-t", "no-v", "blocks-not-list", "block-not-list",
            "str-points"])
    @pytest.mark.parametrize("cmd", [["stats"], ["method1", "--girth", "8",
                                                 "--m-schedule", "3"]])
    def test_malformed_system_is_error_json(self, capsys, tmp_path, doc, cmd):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, [cmd[0], "--fss", str(path), *cmd[1:]])
        assert (code, out) == (EXIT_ERROR, "")
        assert json.loads(err)["error"] == "SetSystemError"


class TestConstructors:
    def test_method1(self, capsys, fss_file, tmp_path):
        out_path = tmp_path / "m1.json"
        code, _, _ = _run(capsys, [
            "method1", "--fss", fss_file, "--girth", "24",
            "--m-schedule", "3", "-o", str(out_path),
        ])
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["verification"]["girth"] == 24
        assert len(doc["system"]["blocks"]) == 9

    def test_method1_reports_resolved_parameters(self, capsys, fss_file):
        code, out, _ = _run(capsys, [
            "method1", "--fss", fss_file, "--girth", "24",
            "--m-schedule", "3", "--order", "random", "--seed", "2",
            "--budget", "500",
        ])
        policy = SearchPolicy(order="random", budget=500, seed=2)
        res = method1(validate_fss(2, [[1, 2]] * 3), 24, [3], policy=policy)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["meta"] == {
            "tool": "fsscode", "version": "0.1.0", "input": fss_file,
            "girth": 24, "m_schedule": [3], "order": "random", "budget": 500,
            "seed": 2}
        assert doc["expansions"] == res.expansions > 0
        assert doc["system"] == json.loads(res.system.to_json())

    def test_method2_ok(self, capsys, tmp_path):
        out_path = tmp_path / "m2.json"
        code, _, _ = _run(capsys, [
            "method2", "--v", "6", "--K", "3,3,2,2", "--girth", "8",
            "-o", str(out_path),
        ])
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert [len(b) for b in doc["system"]["blocks"]] == [3, 3, 2, 2]

    def test_method2_infeasible_exit_code(self, capsys):
        code, out, _ = _run(capsys, [
            "method2", "--v", "2", "--K", "2,2,2,2", "--girth", "14",
        ])
        assert code == EXIT_INFEASIBLE
        assert json.loads(out)["status"] == "infeasible"

    def test_method2_unknown_exit_code(self, capsys):
        code, out, _ = _run(capsys, [
            "method2", "--v", "10", "--K", ",".join(["3"] * 13),
            "--girth", "16", "--budget", "5",
        ])
        assert code == EXIT_UNKNOWN
        assert json.loads(out)["expansions"] == 5

    def test_method2_random_order_bytes_pinned(self, capsys):
        code, out, _ = _run(capsys, [
            "method2", "--v", "8", "--K", "3,3,3,3", "--girth", "12",
            "--order", "random", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert out == json.dumps({
            "meta": {"tool": "fsscode", "version": "0.1.0", "v": 8,
                     "K": [3, 3, 3, 3], "girth": 12, "order": "random",
                     "budget": 10_000_000, "seed": 1},
            "status": "ok",
            "expansions": 14,
            "system": {"v": 8, "t": 2,
                       "blocks": [[3, 4, 5], [5, 6, 7], [4, 5, 6], [6, 7, 8]]},
            "verification": {"girth": "unbounded", "cap": 6},
        }, indent=2) + "\n"


class TestExitCodes:
    """Every status a search or construction subcommand can end in, and
    the exit code it maps to."""

    @pytest.mark.parametrize("argv, status, code", [
        (["shifts", "--m", "5", "--girth", "8"], "ok", EXIT_OK),
        (["shifts", "--m", "2", "--girth", "8"], "infeasible", EXIT_INFEASIBLE),
        (["shifts", "--m", "5", "--girth", "8", "--budget", "1"], "unknown",
         EXIT_UNKNOWN),
        (["method1", "--girth", "24", "--m-schedule", "3"], "ok", EXIT_OK),
        (["method1", "--girth", "24", "--m-schedule", "2"], "infeasible",
         EXIT_INFEASIBLE),
        (["method1", "--girth", "24", "--m-schedule", "3", "--budget", "2"],
         "unknown", EXIT_UNKNOWN),
        (["method2", "--v", "6", "--K", "3,3,2,2", "--girth", "8"], "ok",
         EXIT_OK),
        (["method2", "--v", "2", "--K", "2,2,2,2", "--girth", "14"],
         "infeasible", EXIT_INFEASIBLE),
        (["method2", "--v", "6", "--K", "3,3,2,2", "--girth", "8",
          "--budget", "3"], "unknown", EXIT_UNKNOWN),
    ], ids=["shifts-ok", "shifts-infeasible", "shifts-unknown", "method1-ok",
            "method1-infeasible", "method1-unknown", "method2-ok",
            "method2-infeasible", "method2-unknown"])
    def test_status_exit_code(self, capsys, fss_file, argv, status, code):
        if argv[0] != "method2":
            argv = [argv[0], "--fss", fss_file, *argv[1:]]
        got, out, _ = _run(capsys, argv)
        assert got == code
        doc = json.loads(out)
        assert doc["status"] == status
        if argv[0] != "shifts":  # a system only comes with status ok
            assert ("system" in doc) == ("verification" in doc) == (status == "ok")

    @pytest.mark.parametrize("argv", [
        ["shifts", "--fss", "FSS", "--m", "abc", "--girth", "8"],
        ["bogus"],
        ["shifts", "--m", "5", "--girth", "8"],
        ["expand", "--fss", "FSS", "--shift-list", "0,1,2", "--m", "3"],
        ["simulate", "--alist", "h.alist", "--snr", "4", "--rate", "0.5"],
        ["expand", "--fss", "FSS", "--shifts", "s.json", "--shift-list", "0",
         "--m", "3", "-o", "h.alist"],
        ["expand", "--fss", "FSS", "--m", "3", "-o", "h.alist"],
    ], ids=["bad-int", "unknown-subcommand", "missing-fss", "expand-no-output",
            "simulate-no-output", "expand-both-shift-flags",
            "expand-no-shift-flag"])
    def test_usage_error_exits_1_with_json(self, capsys, fss_file, argv):
        got, out, err = _run(capsys, [fss_file if a == "FSS" else a for a in argv])
        assert (got, out) == (EXIT_ERROR, "")
        assert json.loads(err)["error"] == "ArgumentError"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alist", "ALIST", "--snr", "", "--rate", "5", "-o", "OUT"],
        ["simulate", "--alist", "ALIST", "--snr", "2,,3", "--rate", "0.5",
         "-o", "OUT"],
        ["simulate", "--alist", "ALIST", "--snr", "2,x", "--rate", "0.5",
         "-o", "OUT"],
        ["method2", "--v", "6", "--K", "3,,3", "--girth", "8"],
        ["method2", "--v", "6", "--K", ",", "--girth", "8"],
        ["method1", "--fss", "FSS", "--girth", "24", "--m-schedule", ""],
        ["expand", "--fss", "FSS", "--shift-list", "0,1,", "--m", "3",
         "-o", "OUT"],
    ], ids=["snr-empty", "snr-empty-item", "snr-not-float", "K-empty-item",
            "K-only-comma", "m-schedule-empty", "shift-list-trailing-comma"])
    def test_list_flags_reject_empty_items(self, capsys, fss_file, tmp_path,
                                           argv):
        alist = tmp_path / "h.alist"
        write_alist(expand(reference_code("fss-3-10-m36")), alist)
        out_path = tmp_path / "out"
        subst = {"FSS": fss_file, "ALIST": str(alist), "OUT": str(out_path)}
        got, out, err = _run(capsys, [subst.get(a, a) for a in argv])
        assert (got, out) == (EXIT_ERROR, "")
        doc = json.loads(err)
        assert doc["error"] == "ArgumentError"
        assert "expected comma-separated" in doc["message"]
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["shifts", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestShiftPipeline:
    def test_shifts_expand_tgirth(self, capsys, fss_file, tmp_path):
        shifts_path = tmp_path / "s.json"
        code, _, _ = _run(capsys, [
            "shifts", "--fss", fss_file, "--m", "5", "--girth", "8",
            "-o", str(shifts_path),
        ])
        assert code == EXIT_OK
        alist_path = tmp_path / "h.alist"
        code, _, _ = _run(capsys, [
            "expand", "--fss", fss_file, "--shifts", str(shifts_path),
            "-o", str(alist_path),
        ])
        assert code == EXIT_OK
        code, out, _ = _run(capsys, [
            "tgirth", "--alist", str(alist_path), "--cap", "12",
        ])
        assert code == EXIT_OK
        assert json.loads(out)["girth"] >= 8

    def test_shifts_reports_search_counts(self, capsys, fss_file):
        from fsscode.shiftsearch import SearchPolicy, search_shifts

        argv = ["shifts", "--fss", fss_file, "--m", "2", "--girth", "8",
                "--order", "random", "--seed", "3"]
        code, out, _ = _run(capsys, argv)
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        res = search_shifts(validate_fss(2, [[1, 2]] * 3), 2, 8,
                            policy=SearchPolicy(order="random", seed=3))
        assert (doc["expansions"], doc["backtracks"], doc["restarts"]) == (
            res.expansions, res.backtracks, res.restarts)
        assert doc["backtracks"] > 0
        assert _run(capsys, argv)[1] == out

    def test_shifts_infeasible(self, capsys, fss_file):
        code, _, _ = _run(capsys, [
            "shifts", "--fss", fss_file, "--m", "2", "--girth", "8",
        ])
        assert code == EXIT_INFEASIBLE

    def test_expand_shift_list(self, capsys, fss_file, tmp_path):
        alist_path = tmp_path / "h.alist"
        code, out, _ = _run(capsys, [
            "expand", "--fss", fss_file, "--shift-list", "0,1,2", "--m", "3",
            "-o", str(alist_path),
        ])
        assert code == EXIT_OK
        assert json.loads(out)["cols"] == 9

    def test_expand_flag_validation(self, capsys, fss_file, tmp_path):
        code, out, err = _run(capsys, ["expand", "--fss", fss_file, "-o", "x"])
        assert (code, out) == (EXIT_ERROR, "")
        assert "error" in json.loads(err)
        alist_path = tmp_path / "h.alist"
        code, out, err = _run(capsys, ["expand", "--fss", fss_file,
                                       "--shift-list", "0,1,2", "-o", str(alist_path)])
        assert (code, out) == (EXIT_ERROR, "")
        assert json.loads(err)["message"] == "--shift-list requires --m"
        assert not alist_path.exists()

    def test_expand_rejects_m_with_shifts(self, capsys, fss_file, tmp_path):
        # the shift file carries its own m; a second one is not dropped
        # silently
        shifts_path = tmp_path / "s.json"
        shifts_path.write_text(json.dumps({"m": 5, "shifts": [
            {"point": x, "block": k, "s": k * x % 5}
            for k in (1, 2, 3) for x in (1, 2)]}))
        alist_path = tmp_path / "h.alist"
        argv = ["expand", "--fss", fss_file, "--shifts", str(shifts_path),
                "-o", str(alist_path)]
        code, out, err = _run(capsys, [*argv, "--m", "7"])
        assert (code, out) == (EXIT_ERROR, "")
        assert json.loads(err)["error"] == "ValueError"
        assert "--m" in json.loads(err)["message"]
        assert not alist_path.exists()
        assert _run(capsys, argv)[0] == EXIT_OK
        assert alist_path.exists()

    @pytest.mark.parametrize("cmd", ["shifts", "method1"])
    def test_negative_seed_exits_1(self, capsys, fss_file, cmd):
        more = ["--m", "5", "--girth", "8"] if cmd == "shifts" else [
            "--girth", "8", "--m-schedule", "5"]
        code, out, err = _run(capsys, [cmd, "--fss", fss_file, *more,
                                       "--seed", "-1"])
        assert (code, out) == (EXIT_ERROR, "")
        assert json.loads(err)["error"] == "ValueError"
        assert "seed" in json.loads(err)["message"]

    def test_expand_rejects_zero_modulus(self, capsys, fss_file, tmp_path):
        alist_path = tmp_path / "h.alist"
        code, out, err = _run(capsys, [
            "expand", "--fss", fss_file, "--shift-list", "1,2,3", "--m", "0",
            "-o", str(alist_path),
        ])
        assert (code, out) == (EXIT_ERROR, "")
        assert json.loads(err)["error"] == "ValueError"
        assert not alist_path.exists()

    def test_expand_rejects_repeated_shift_record(self, capsys, fss_file, tmp_path):
        shifts_path = tmp_path / "s.json"
        shifts_path.write_text(json.dumps({"m": 5, "shifts": [
            {"point": 1, "block": 1, "s": 0}, {"point": 1, "block": 1, "s": 3}]}))
        alist_path = tmp_path / "h.alist"
        code, out, err = _run(capsys, [
            "expand", "--fss", fss_file, "--shifts", str(shifts_path),
            "-o", str(alist_path),
        ])
        assert (code, out) == (EXIT_ERROR, "")
        assert json.loads(err)["error"] == "ValueError"
        assert not alist_path.exists()


DESIGN_6_3_2 = [
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
    [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
]


def _walk(points, blocks):
    return {"points": points, "blocks": blocks}


class TestWalkSearchBytesPinned:
    """Stdout bytes of the commands that search balanced walks, witnesses
    included: the witness is the first walk the search meets, so these pin
    its visiting order as well as its result."""

    @pytest.mark.parametrize("v, blocks, cap, girth, witness", [
        (2, [[1, 2]] * 3, 12, 12,
         _walk([1, 2, 1, 2, 1, 2], [1, 2, 3, 1, 2, 3])),
        (3, [[1, 2, 3]] * 10, 12, 12,
         _walk([1, 2, 1, 2, 1, 2], [1, 2, 3, 1, 2, 3])),
        (6, DESIGN_6_3_2, 7, 14,
         _walk([1, 2, 1, 3, 1, 2, 3], [1, 2, 3, 1, 2, 1, 3])),
    ])
    def test_girth(self, capsys, tmp_path, monkeypatch, v, blocks, cap, girth,
                   witness):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fss.json").write_text(validate_fss(v, blocks).to_json())
        argv = ["girth", "--fss", "fss.json"]
        if cap != 12:
            argv += ["--cap", str(cap)]
        code, out, _ = _run(capsys, argv)
        assert code == EXIT_OK
        assert out == json.dumps({
            "girth": girth, "cap": cap, "witness": witness,
            "meta": {"tool": "fsscode", "version": "0.1.0", "input": "fss.json",
                     "cap": cap},
        }, indent=2) + "\n"

    @pytest.mark.parametrize("name, expansions, blocks, witness", [
        ("v10-b13-g16", 60,
         [[1, 2, 3], [1, 2, 4], [1, 5, 6], [1, 5, 7], [1, 8, 9], [1, 8, 10],
          [2, 5, 9, 10], [2, 5, 8], [2, 6, 7], [3, 4, 5], [3, 4, 6],
          [3, 7, 8], [3, 7, 9]],
         _walk([1, 2, 1, 5, 1, 2, 1, 5], [1, 2, 3, 4, 2, 1, 4, 3])),
        ("v10-b19-g14", 110,
         [[1, 2, 3], [1, 2, 4], [1, 3, 4], [1, 5, 6, 7], [1, 5, 8], [1, 6, 8],
          [1, 7, 9], [2, 3, 4, 5], [2, 5, 6, 8], [1, 9, 10], [2, 6, 7],
          [2, 7, 8], [2, 9, 10], [3, 5, 7, 9], [3, 6, 9], [3, 6, 10],
          [3, 7, 8, 10], [4, 5, 9], [4, 6, 9]],
         _walk([1, 2, 1, 3, 1, 2, 3], [1, 2, 3, 1, 2, 1, 3])),
    ])
    def test_method2_bundled_profiles(self, capsys, name, expansions, blocks,
                                      witness):
        p = next(p for p in load_paper_tables()["weight_profiles"]
                 if p["name"] == name)
        g = p["target_girth"]
        code, out, _ = _run(capsys, [
            "method2", "--v", str(p["v"]), "--K", ",".join(map(str, p["K"])),
            "--girth", str(g),
        ])
        assert code == EXIT_OK
        assert out == json.dumps({
            "meta": {"tool": "fsscode", "version": "0.1.0", "v": p["v"],
                     "K": p["K"], "girth": g, "order": "ascending",
                     "budget": 10_000_000, "seed": 0},
            "status": "ok",
            "expansions": expansions,
            "system": {"v": p["v"], "t": 2, "blocks": blocks},
            "verification": {"girth": g, "cap": g // 2, "witness": witness},
        }, indent=2) + "\n"


class TestTgirth:
    ALIST = ("9 6\n2 3\n" + " ".join(["2"] * 9) + "\n" + " ".join(["3"] * 6)
             + "\n1 4\n2 5\n3 6\n1 6\n2 4\n3 5\n1 5\n2 6\n3 4\n"
             "1 4 7\n2 5 8\n3 6 9\n1 5 9\n2 6 7\n3 4 8\n")

    def test_json_bytes_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h.alist").write_text(self.ALIST)
        code, out, _ = _run(capsys, ["tgirth", "--alist", "h.alist",
                                     "--cap", "12"])
        assert code == EXIT_OK
        witness = "".join(f"\n    {x}," for x in (0, 9, 5, 8, 2, 14, 3, 6))
        assert out == (
            '{\n  "girth": 8,\n  "cap": 12,\n  "witness": ['
            + witness[:-1] + '\n  ],\n  "meta": {\n    "tool": "fsscode",'
            '\n    "version": "0.1.0",\n    "input": "h.alist",'
            '\n    "cap": 12\n  }\n}\n'
        )

    def test_json_bytes_pinned_reference_code(self, capsys, tmp_path,
                                              monkeypatch):
        # the n=360 reference code: the oracle finds its circulant size 36
        # in the alist and roots one BFS per block-row
        monkeypatch.chdir(tmp_path)
        write_alist(expand(reference_code("fss-3-10-m36")), "h.alist")
        code, out, _ = _run(capsys, ["tgirth", "--alist", "h.alist"])
        assert code == EXIT_OK
        witness = "".join(f"\n    {x}," for x in (0, 144, 71, 143, 35, 251, 72, 108))
        assert out == (
            '{\n  "girth": 8,\n  "cap": 16,\n  "witness": ['
            + witness[:-1] + '\n  ],\n  "meta": {\n    "tool": "fsscode",'
            '\n    "version": "0.1.0",\n    "input": "h.alist",'
            '\n    "cap": 16\n  }\n}\n'
        )

    def test_truncated_alist_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "h.alist"
        path.write_text("\n".join(self.ALIST.splitlines()[:10]) + "\n")
        code, out, err = _run(capsys, ["tgirth", "--alist", str(path)])
        assert code == EXIT_ERROR
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_negative_degree_is_an_error(self, capsys, tmp_path):
        # a section of maximum degree 0 reads no adjacency line, so only the
        # degree check stops this file from reading as a 1 x 2 matrix
        path = tmp_path / "h.alist"
        path.write_text("2 1\n0 0\n0 -1\n0\n")
        code, out, err = _run(capsys, ["tgirth", "--alist", str(path)])
        assert code == EXIT_ERROR
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert "line 3" in doc["message"]


class TestSimulateAndTables:
    def test_simulate_csv(self, capsys, fss_file, tmp_path):
        alist_path = tmp_path / "h.alist"
        _run(capsys, ["expand", "--fss", fss_file, "--shift-list", "0,1,2",
                      "--m", "3", "-o", str(alist_path)])
        csv_path = tmp_path / "ber.csv"
        code, _, _ = _run(capsys, [
            "simulate", "--alist", str(alist_path), "--snr", "4",
            "--rate", "0.34", "--min-frame-errors", "5", "--max-frames", "50",
            "-o", str(csv_path),
        ])
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_verify_table_row(self, capsys):
        code, out, _ = _run(capsys, ["verify-table", "--row", "fss-3-12-m13"])
        assert code == EXIT_OK
        assert out.startswith("PASS")

    def test_verify_table_unknown_row(self, capsys):
        code, _, err = _run(capsys, ["verify-table", "--row", "nope"])
        assert code == EXIT_ERROR

    def test_verify_table_empty_row_is_an_error(self, capsys):
        # "" once read as no --row at all, and re-verified every code
        code, out, err = _run(capsys, ["verify-table", "--row", ""])
        assert (code, out) == (EXIT_ERROR, "")
        assert "unknown table row" in json.loads(err)["message"]

    def test_verify_table_takes_no_output_file(self, capsys, tmp_path):
        # it prints its report; -o was once accepted and ignored
        path = tmp_path / "table.txt"
        code, out, err = _run(capsys, ["verify-table", "--row", "fss-3-12-m13",
                                       "-o", str(path)])
        assert (code, out) == (EXIT_ERROR, "")
        assert json.loads(err)["error"] == "ArgumentError"
        assert not path.exists()

    @pytest.mark.parametrize("row, code", [("fss-3-12-m13", EXIT_OK),
                                           ("nope", EXIT_ERROR)])
    def test_python_dash_m_runs_the_cli(self, row, code):
        # ``python -m fsscode`` from the source tree, exit code passed through
        import fsscode

        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(fsscode.__file__)))
        proc = subprocess.run([sys.executable, "-m", "fsscode", "verify-table",
                               "--row", row], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith("PASS fss-3-12-m13") == (code == EXIT_OK)


class TestPointBoundAndDefaults:
    def test_stats_rejects_a_huge_point_count_at_once(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"v": 1000000000, "blocks": [[1, 2]]}')
        start = time.perf_counter()
        code, out, err = _run(capsys, ["stats", "--fss", str(path)])
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (EXIT_ERROR, "")
        doc = json.loads(err)
        assert doc["error"] == "SetSystemError"
        assert "point count" in doc["message"]

    def test_shifts_rejects_a_modulus_too_large_to_expand(self, capsys,
                                                          tmp_path):
        # the expansion of one 5-point block at m = 2**22 has 5 * 2**22 rows
        path = tmp_path / "block.json"
        path.write_text(validate_fss(5, [[1, 2, 3, 4, 5]]).to_json())
        start = time.perf_counter()
        code, out, err = _run(capsys, ["shifts", "--fss", str(path), "--m",
                                       str(2**22), "--girth", "6"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_ERROR, "")
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith("modulus must be <= 3355443")

    @pytest.mark.parametrize("argv, dest, fn, value", [
        (["simulate", "--alist", "h", "--snr", "1", "--rate", "0.5", "-o", "o"],
         "max_iter", ber_sweep, 50),
        (["simulate", "--alist", "h", "--snr", "1", "--rate", "0.5", "-o", "o"],
         "seed", ber_sweep, 0),
        (["tgirth", "--alist", "h"], "cap", tanner_girth, 16),
        (["girth", "--fss", "f"], "cap", inevitable_girth, 12),
    ])
    def test_defaults_are_the_library_defaults(self, argv, dest, fn, value):
        default = inspect.signature(fn).parameters[dest].default
        assert getattr(build_parser().parse_args(argv), dest) == default == value
