"""Command-line surface for the set-system LDPC pipeline.

Exit codes: 0 success, 2 infeasible, 3 unknown (budget exhausted), 1 error.
Errors are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, load_paper_tables, reference_code
from .setsystem import SetSystem, block_stats
from .qc import (
    assemble,
    expand,
    read_alist,
    shift_sequence_from_list,
    shifts_from_json,
    shifts_to_json,
    write_alist,
)
from .girth import DEFAULT_WALK_CAP, _TANNER_CAP, inevitable_girth, tanner_girth
from .shiftsearch import SearchPolicy, search_shifts
from .construct import WeightProfile, method1, method2
from .sim import _MAX_ITER, ChannelConfig, StopRule, ber_sweep, write_ber_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNKNOWN = 3

# the exit code of a search or construction status: shifts, method1, method2
EXIT_CODES = {"ok": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "unknown": EXIT_UNKNOWN}


def _load_fss(path) -> SetSystem:
    with open(path) as fh:
        return SetSystem.from_json(fh.read())


def _emit(doc, path=None):
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _meta(**params):
    return {"tool": "fsscode", "version": __version__, **params}


def _policy(args) -> SearchPolicy:
    return SearchPolicy(order=args.order, budget=args.budget, seed=args.seed)


def _list_of(kind):
    """argparse ``type`` for a comma-separated list of ``kind`` values: an
    empty list, an empty item or a bad value is a usage error."""
    def parse(text):
        try:  # int("") and float("") raise too
            return [kind(x) for x in text.replace(" ", "").split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None
    return parse


def cmd_stats(args):
    fss = _load_fss(args.fss)
    st = block_stats(fss)
    _emit(
        {
            "meta": _meta(input=args.fss),
            "v": fss.v,
            "b": fss.b,
            "t": fss.t,
            "K": list(st.K),
            "R": list(st.R),
            "coverage": {str(i): sorted(vals) for i, vals in st.coverage.items()},
        },
        args.output,
    )
    return EXIT_OK


def _emit_girth(args, report, source):
    doc = json.loads(report.to_json())
    doc["meta"] = _meta(input=source, cap=args.cap)
    _emit(doc, args.output)
    return EXIT_OK


def cmd_girth(args):
    return _emit_girth(args, inevitable_girth(_load_fss(args.fss), cap=args.cap),
                       args.fss)


def _constructed(res):
    return {"system": json.loads(res.system.to_json()),
            "verification": json.loads(res.report.to_json())}


def _emit_status(args, res, meta, counts=(), found=_constructed):
    """Write ``meta``, ``status`` and the ``counts`` attributes of ``res``,
    plus ``found(res)`` when it is ok; the exit code follows the status."""
    doc = {"meta": _meta(**meta), "status": res.status}
    doc.update((name, getattr(res, name)) for name in counts)
    if res.ok:
        doc.update(found(res))
    _emit(doc, args.output)
    return EXIT_CODES[res.status]


def cmd_method1(args):
    res = method1(_load_fss(args.fss), args.girth, args.m_schedule,
                  policy=_policy(args))
    return _emit_status(args, res, dict(
        input=args.fss, girth=args.girth, m_schedule=args.m_schedule,
        order=args.order, budget=args.budget, seed=args.seed), ["expansions"])


def cmd_method2(args):
    profile = WeightProfile(tuple(args.K))
    res = method2(args.v, profile, args.girth, policy=_policy(args))
    return _emit_status(args, res, dict(
        v=args.v, K=list(profile.K), girth=args.girth, order=args.order,
        budget=args.budget, seed=args.seed), ["expansions"])


def cmd_shifts(args):
    fss = _load_fss(args.fss)
    res = search_shifts(fss, args.m, args.girth, policy=_policy(args))
    return _emit_status(
        args, res, dict(input=args.fss, m=args.m, girth=args.girth,
                        order=args.order, budget=args.budget, seed=args.seed),
        ["expansions", "backtracks", "restarts"],
        lambda res: {**json.loads(shifts_to_json(fss, res.shifts)),
                     "verified_girth": res.verified_girth})


def cmd_expand(args):
    fss = _load_fss(args.fss)
    if args.shifts is not None:
        if args.m is not None:
            raise ValueError("--shifts takes m from its file: drop --m")
        with open(args.shifts) as fh:
            S = shifts_from_json(fss, fh.read())
    elif args.m is None:
        raise ValueError("--shift-list requires --m")
    else:
        S = shift_sequence_from_list(fss, args.m, args.shift_list)
    H = expand(assemble(fss, S))
    write_alist(H, args.output)
    print(json.dumps({"rows": H.rows, "cols": H.cols, "nnz": H.nnz,
                      "output": args.output}))
    return EXIT_OK


def cmd_tgirth(args):
    return _emit_girth(args, tanner_girth(read_alist(args.alist), cap=args.cap),
                       args.alist)


def cmd_simulate(args):
    H = read_alist(args.alist)
    stop = StopRule(min_frame_errors=args.min_frame_errors,
                    max_frames=args.max_frames)
    records = ber_sweep(H, args.snr, rate=args.rate, stop=stop,
                        seed=args.seed, max_iter=args.max_iter)
    write_ber_csv(records, args.output)
    print(json.dumps({"points": len(records), "seed": args.seed,
                      "output": args.output}))
    return EXIT_OK


def cmd_verify_table(args):
    tables = load_paper_tables()
    rows = tables["girth_codes"]
    if args.row is not None:
        rows = [r for r in rows if r["name"] == args.row]
        if not rows:
            raise ValueError(f"unknown table row {args.row!r}")
    failures = 0
    for row in rows:
        H = expand(reference_code(row["name"]))
        report = tanner_girth(H, cap=row["girth"] + 2)
        ok = report.girth == row["girth"] and H.cols == row["n"]
        status = "PASS" if ok else "FAIL"
        print(f"{status} {row['name']}: girth {report.girth} "
              f"(expected {row['girth']}), n={H.cols} (expected {row['n']})")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Usage errors raise into ``main``'s error boundary (exit 1, JSON on
    stderr) instead of printing usage and exiting 2, which means infeasible."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="fsscode",
        description="Quasi-cyclic LDPC codes from finite set systems",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        if name != "verify-table":  # it prints its report and writes no file
            sp.add_argument("-o", "--output",
                            required=name in ("expand", "simulate"))
        return sp

    def add_policy(sp):
        sp.add_argument("--order", choices=("ascending", "random"),
                        default=SearchPolicy.order)
        sp.add_argument("--budget", type=int, default=SearchPolicy.budget)
        sp.add_argument("--seed", type=int, default=SearchPolicy.seed)

    sp = add("stats", cmd_stats, help="block/replication/coverage statistics")
    sp.add_argument("--fss", required=True)

    sp = add("girth", cmd_girth, help="maximum achievable girth of a system")
    sp.add_argument("--fss", required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_WALK_CAP)

    sp = add("method1", cmd_method1, help="iterated-lifting construction")
    sp.add_argument("--fss", required=True)
    sp.add_argument("--girth", type=int, required=True)
    sp.add_argument("--m-schedule", type=_list_of(int), required=True)
    add_policy(sp)

    sp = add("method2", cmd_method2, help="profile-driven backtracking construction")
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--K", type=_list_of(int), required=True)
    sp.add_argument("--girth", type=int, required=True)
    add_policy(sp)

    sp = add("shifts", cmd_shifts, help="search circulant shifts for a target girth")
    sp.add_argument("--fss", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--girth", type=int, required=True)
    add_policy(sp)

    sp = add("expand", cmd_expand, help="expand a system + shifts to alist")
    sp.add_argument("--fss", required=True)
    given = sp.add_mutually_exclusive_group(required=True)
    given.add_argument("--shifts", help="shift JSON file")
    given.add_argument("--shift-list", type=_list_of(int),
                       help="comma-separated shifts (explicit or compressed)")
    sp.add_argument("--m", type=int)

    sp = add("tgirth", cmd_tgirth, help="Tanner girth of an alist matrix")
    sp.add_argument("--alist", required=True)
    sp.add_argument("--cap", type=int, default=_TANNER_CAP)

    sp = add("simulate", cmd_simulate, help="AWGN BER/FER sweep")
    sp.add_argument("--alist", required=True)
    sp.add_argument("--snr", type=_list_of(float), required=True,
                    help="comma-separated Eb/N0 in dB")
    sp.add_argument("--rate", type=float, required=True)
    sp.add_argument("--seed", type=int, default=ChannelConfig.seed)
    sp.add_argument("--min-frame-errors", type=int,
                    default=StopRule.min_frame_errors)
    sp.add_argument("--max-frames", type=int, default=StopRule.max_frames)
    sp.add_argument("--max-iter", type=int, default=_MAX_ITER)

    sp = add("verify-table", cmd_verify_table,
             help="re-verify bundled reference shift sequences")
    sp.add_argument("--row", default=None)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except Exception as ex:  # noqa: BLE001 - single CLI boundary
        print(json.dumps({"error": type(ex).__name__, "message": str(ex)}),
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
