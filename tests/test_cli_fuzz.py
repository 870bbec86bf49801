"""Derandomized fuzzing of the CLI boundary.

``cli.main`` runs in process on valid documents and arguments and on
mutations of them: dropped keys and flags, wrong types, bools, zero,
negative and NaN/inf values, empty lists and truncated alist files.
Whatever the input, the exit code is one the CLI documents, and an error
(exit 1) is one JSON object on stderr with nothing on stdout, naming a
validation error rather than a crash inside the library.  Sizes stay
small, so no case allocates much or searches long.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsscode.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

CRASHES = {"ZeroDivisionError", "TypeError", "KeyError", "AttributeError",
           "IndexError"}

SYSTEM = {"v": 3, "t": 2, "blocks": [[1, 2], [2, 3], [1, 3], [1, 2, 3]]}
# the shifts of SYSTEM at m=3 that ``expand`` reads, and the 6x9 code
# whose alist ``tgirth`` and ``simulate`` read
SHIFTS = {"m": 3, "shifts": [
    {"point": i, "block": j, "s": (i * j) % 3}
    for j, blk in enumerate(SYSTEM["blocks"], 1) for i in blk]}
ALIST = ("9 6\n2 3\n" + " ".join(["2"] * 9) + "\n" + " ".join(["3"] * 6)
         + "\n1 4\n2 5\n3 6\n1 6\n2 4\n3 5\n1 5\n2 6\n3 4\n"
         "1 4 7\n2 5 8\n3 6 9\n1 5 9\n2 6 7\n3 4 8\n")

# subcommand -> valid argv; FSS, SHIFTS, ALIST and OUT name files
VALID = {
    "stats": ["--fss", "FSS"],
    "girth": ["--fss", "FSS", "--cap", "6"],
    "shifts": ["--fss", "FSS", "--m", "5", "--girth", "6", "--budget", "300"],
    "method1": ["--fss", "FSS", "--girth", "12", "--m-schedule", "3,5",
                "--budget", "300"],
    "method2": ["--v", "5", "--K", "2,3,2", "--girth", "6", "--budget", "300"],
    "expand": ["--fss", "FSS", "--shifts", "SHIFTS", "-o", "OUT"],
    "expand-list": ["--fss", "FSS", "--shift-list", "1,2,0,1,2", "--m", "3",
                    "-o", "OUT"],
    "tgirth": ["--alist", "ALIST", "--cap", "8"],
    "simulate": ["--alist", "ALIST", "--snr", "1,3", "--rate", "0.34",
                 "--min-frame-errors", "2", "--max-frames", "6",
                 "--max-iter", "4", "-o", "OUT"],
    "verify-table": ["--row", "fss-3-11-m11"],
}

# small values only: no modulus, cap or budget here can make a case slow
VALUES = ["0", "-1", "-7", "1", "2", "3", "4", "7", "1.5", "nan", "inf",
          "-inf", "true", "", "x", "2,,3", "3,", ",", "0,0"]

JSON_VALUES = [None, True, False, 0, -1, 2, 1.5, float("nan"), float("inf"),
               "3", [], {}, [[]], [1], [True], [[1.5, 2]], [[0, 1]]]


def _run(argv, files=None):
    """``main`` on argv whose placeholders name files written from
    ``files`` (text by placeholder) in a fresh directory; returns the exit
    code, stdout and stderr."""
    texts = {"FSS": json.dumps(SYSTEM), "SHIFTS": json.dumps(SHIFTS),
             "ALIST": ALIST, **(files or {})}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, text in texts.items():
            paths[key] = str(Path(tmp) / key.lower())
            Path(paths[key]).write_text(text)
        paths["OUT"] = str(Path(tmp) / "out")
        argv = [paths.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a mutated -o value is a relative path: keep it here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _check(argv, files=None):
    code, out, err = _run(argv, files)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        assert out == "", (argv, out)
        doc = json.loads(err)
        assert doc.keys() == {"error", "message"}, (argv, err)
        assert doc["error"] not in CRASHES, (argv, files, err)
    else:
        assert err == "", (argv, err)
    return code


def _argv(name, args):
    return [name.removesuffix("-list"), *args]


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_invocations_succeed(name):
    assert _check(_argv(name, VALID[name])) == 0


@FUZZ
@given(name=st.sampled_from(sorted(VALID)), data=st.data())
def test_mutated_flag_values(name, data):
    args = list(VALID[name])
    flags = [i for i, a in enumerate(args) if a.startswith("-")
             and i + 1 < len(args)]
    i = data.draw(st.sampled_from(flags))
    args[i + 1] = data.draw(st.sampled_from(VALUES))
    _check(_argv(name, args))


@FUZZ
@given(name=st.sampled_from(sorted(VALID)), data=st.data())
def test_dropped_or_repeated_flags(name, data):
    args = list(VALID[name])
    flags = [i for i, a in enumerate(args) if a.startswith("-")]
    i = data.draw(st.sampled_from(flags))
    if data.draw(st.booleans()):
        del args[i:i + 2]
    else:
        args[i + 1:i + 1] = [args[i]]  # the flag swallows the next flag
    _check(_argv(name, args))


def _mutate_doc(data, doc):
    """``doc`` with one key dropped or one value, at the top level or one
    level down, replaced by a value of another type."""
    doc = json.loads(json.dumps(doc))
    key = data.draw(st.sampled_from(sorted(doc)))
    value = doc[key]
    if isinstance(value, list) and value and data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(value) - 1))
        item = value[j]
        if isinstance(item, dict) and data.draw(st.booleans()):
            k = data.draw(st.sampled_from(sorted(item)))
            if data.draw(st.booleans()):
                del item[k]
            else:
                item[k] = data.draw(st.sampled_from(JSON_VALUES))
        elif isinstance(item, list) and item and data.draw(st.booleans()):
            item[data.draw(st.integers(0, len(item) - 1))] = \
                data.draw(st.sampled_from(JSON_VALUES))
        else:
            value[j] = data.draw(st.sampled_from(JSON_VALUES))
    elif data.draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = data.draw(st.sampled_from(JSON_VALUES))
    return json.dumps(doc)


@FUZZ
@given(name=st.sampled_from(["stats", "girth", "shifts", "method1",
                             "expand", "expand-list"]),
       data=st.data())
def test_mutated_system(name, data):
    _check(_argv(name, VALID[name]), {"FSS": _mutate_doc(data, SYSTEM)})


@FUZZ
@given(data=st.data())
def test_mutated_shifts(data):
    _check(_argv("expand", VALID["expand"]),
           {"SHIFTS": _mutate_doc(data, SHIFTS)})


@FUZZ
@given(name=st.sampled_from(["tgirth", "simulate"]), data=st.data())
def test_mutated_alist(name, data):
    words = ALIST.split(" ")
    if data.draw(st.booleans()):
        text = ALIST[:data.draw(st.integers(0, len(ALIST) - 1))]
    else:
        i = data.draw(st.integers(0, len(words) - 1))
        words[i] = data.draw(st.sampled_from(VALUES))
        text = " ".join(words)
    _check(_argv(name, VALID[name]), {"ALIST": text})


@pytest.mark.parametrize("text", ["", "[]", "{}", "null", "nan", "{",
                                  '{"v": 3, "blocks": []}'])
@pytest.mark.parametrize("name", ["stats", "girth", "shifts", "method1",
                                  "expand", "expand-list"])
def test_degenerate_systems(name, text):
    _check(_argv(name, VALID[name]), {"FSS": text})
