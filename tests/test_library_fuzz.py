"""The library boundary: explicit checks and derandomized fuzzing.

The fuzz calls every public function of a module's ``__all__`` that takes
scalars, sequences or JSON text, once with valid arguments and then with one
argument mutated in type (None, bools, floats, NaN, strings, containers,
numpy values), shape (wrapped, unwrapped, an item replaced or reshaped, a
JSON value replaced or dropped) or size (truncated, repeated, off by one,
doubled).  Whatever the input, the call
returns or raises ValueError (``SetSystemError`` is one) within a time
limit.  Search policies and stop rules are mutated too, since the library
checks their class; set systems, matrices and other objects are always
valid: the library duck-types them, so an object of a wrong class is out of
scope, and so are file paths, which go to ``open`` as they are.  Sizes stay
small, and every search runs under a small budget.
"""

import json
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsscode.construct import WeightProfile, method1, method2
from fsscode.girth import bsg_shortest_closed_walk, inevitable_girth, tanner_girth
from fsscode.qc import (
    ShiftSequence,
    assemble,
    expand,
    shift_sequence_from_list,
    shifts_from_json,
    shifts_to_json,
)
from fsscode.setsystem import (
    BinaryMatrix,
    SetSystem,
    SetSystemError,
    incidence_matrix,
    validate_fss,
)
from fsscode.shiftsearch import SearchPolicy, ShiftSearchState, search_shifts
from fsscode.sim import ChannelConfig, StopRule, ber_sweep, spa_decode, transmit

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=25,
                suppress_health_check=[HealthCheck.too_slow])

LIMIT_S = 5.0  # per call

BLOCKS = [[1, 2], [2, 3], [1, 3], [1, 2, 3]]
FSS = validate_fss(3, BLOCKS)
SHIFTS = shift_sequence_from_list(FSS, 3, [1, 2, 0, 1, 2])  # compressed
H = expand(assemble(FSS, SHIFTS))
POLICY = SearchPolicy(budget=300)

# target -> (function, valid keyword arguments, the arguments to mutate)
TARGETS = {
    "validate_fss": (validate_fss, dict(v=3, blocks=BLOCKS, t=2),
                     ["v", "blocks", "t"]),
    "SetSystem.from_json": (SetSystem.from_json, dict(text=FSS.to_json()),
                            ["text"]),
    "BinaryMatrix": (BinaryMatrix, dict(rows=2, cols=3,
                                        entries=[[0, 1], [1, 2]]),
                     ["rows", "cols", "entries"]),
    "incidence_matrix": (incidence_matrix, dict(fss=FSS, min_replication=2),
                         ["min_replication"]),
    "ShiftSequence": (ShiftSequence, dict(m=3, entries=SHIFTS.entries),
                      ["m", "entries"]),
    "shifts_from_json": (shifts_from_json,
                         dict(fss=FSS, text=shifts_to_json(FSS, SHIFTS)),
                         ["text"]),
    "shift_sequence_from_list": (shift_sequence_from_list,
                                 dict(fss=FSS, m=3, values=[1, 2, 0, 1, 2]),
                                 ["m", "values"]),
    "bsg_shortest_closed_walk": (bsg_shortest_closed_walk,
                                 dict(q=assemble(FSS, SHIFTS), cap=4), ["cap"]),
    "tanner_girth": (tanner_girth, dict(H=H, cap=8), ["cap"]),
    "inevitable_girth": (inevitable_girth, dict(fss=FSS, cap=4), ["cap"]),
    "SearchPolicy": (SearchPolicy, dict(order="random", budget=300, seed=1),
                     ["order", "budget", "seed"]),
    "search_shifts": (search_shifts, dict(fss=FSS, m=5, target_girth=6,
                                          policy=POLICY),
                      ["m", "target_girth", "policy"]),
    "ShiftSearchState.create": (ShiftSearchState.create,
                                dict(fss=FSS, m=5, target_girth=6),
                                ["m", "target_girth"]),
    "WeightProfile": (WeightProfile, dict(K=(2, 3, 2)), ["K"]),
    "method1": (method1, dict(primitive=FSS, target_g=12, m_schedule=[3, 5],
                              policy=POLICY),
                ["target_g", "m_schedule", "policy"]),
    "method2": (method2, dict(v=5, profile=WeightProfile((2, 3, 2)),
                              target_g=6, policy=POLICY),
                ["v", "target_g", "policy"]),
    "ChannelConfig": (ChannelConfig, dict(ebn0_db=3.0, rate=0.5, seed=1),
                      ["ebn0_db", "rate", "seed"]),
    "StopRule": (StopRule, dict(min_frame_errors=2, max_frames=6),
                 ["min_frame_errors", "max_frames"]),
    "transmit": (transmit, dict(n=9, cfg=ChannelConfig(3.0, 0.5)), ["n"]),
    "spa_decode": (spa_decode, dict(H=H, llr=[1.5] * H.cols, max_iter=4),
                   ["llr", "max_iter"]),
    "ber_sweep": (ber_sweep, dict(H=H, ebn0_list=[1.0, 3.0], rate=0.34,
                                  stop=StopRule(2, 6), seed=1, max_iter=4),
                  ["ebn0_list", "rate", "stop", "seed", "max_iter"]),
}

# one value of each type.  The only large value is 10**9 in a JSON document,
# where it is a point count over the bound or a number that is only compared
OTHER_TYPES = [None, True, False, 0.0, 1.5, math.nan, math.inf, -math.inf,
               "", "3", "x", b"3", [], (), {}, [None], [[]], {"a": 1},
               np.float64(2.0), np.array([1, 2]), np.array(3), np.int8(-1),
               np.bool_(True), 1j]
JSON_VALUES = [None, True, False, 0, -1, 2, 1.5, "3", [], {}, [[]], [1],
               [True], [[1.5, 2]], [[0, 1]], 10**9]


class Timeout(BaseException):
    """Raised by the alarm, so no ``except Exception`` can catch it."""


@contextmanager
def time_limit(seconds):
    def alarm(*_):
        raise Timeout(f"call ran longer than {seconds} s")
    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _call(fn, kwargs):
    """``fn(**kwargs)``; only ValueError may escape, within the limit.
    True iff it raised one."""
    with time_limit(LIMIT_S):
        try:
            fn(**kwargs)
        except ValueError:
            return True
    return False


def _resized(data, x):
    """A number moved off its valid value; a sequence, mapping or text
    truncated or repeated; any other object as a list of copies."""
    if isinstance(x, (int, float)):
        return data.draw(st.sampled_from([x - 1, x + 1, -x, 0, 2 * x, x + 0.5]))
    if isinstance(x, dict):
        items = list(x.items())
    else:
        items = x if isinstance(x, (str, list, tuple)) else [x]
    items = (items * 3)[:data.draw(st.integers(0, 3 * len(items)))]
    return dict(items) if isinstance(x, dict) else items


def _reshaped(data, x):
    """``x`` wrapped, unwrapped, or with one item replaced or reshaped."""
    if isinstance(x, dict):
        return data.draw(st.sampled_from([list(x.items()), list(x), [x]]))
    if isinstance(x, (list, tuple)) and x and data.draw(st.booleans()):
        items = list(x)
        j = data.draw(st.integers(0, len(items) - 1))
        if isinstance(items[j], (list, tuple)) and data.draw(st.booleans()):
            items[j] = _reshaped(data, items[j])
        else:
            items[j] = data.draw(st.sampled_from(
                [[items[j]], *OTHER_TYPES, *items]))
        return type(x)(items)
    if isinstance(x, (list, tuple)) and x:
        return x[0]
    return data.draw(st.sampled_from([[x], (x,), np.array([x])]))


def _mutated_json(data, text):
    """``text`` with one value, at the top level or one or two levels down,
    replaced by a value of another type or dropped."""
    doc = json.loads(text)
    key = data.draw(st.sampled_from(sorted(doc)))
    node, k = doc, key
    if isinstance(doc[key], list) and doc[key] and data.draw(st.booleans()):
        node, k = doc[key], data.draw(st.integers(0, len(doc[key]) - 1))
        if isinstance(node[k], dict) and data.draw(st.booleans()):
            node, k = node[k], data.draw(st.sampled_from(sorted(node[k])))
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[k]
    else:
        node[k] = data.draw(st.sampled_from(JSON_VALUES))
    return json.dumps(doc)


@pytest.mark.parametrize("call, message", [
    (lambda: search_shifts(FSS, 5, 7), "target girth must be even, got 7"),
    (lambda: method1(FSS, 7, [3]), "target girth must be even, got 7"),
    (lambda: method2(5, WeightProfile((2, 3)), 7),
     "target girth must be even, got 7"),
    (lambda: tanner_girth(H, 7), "cap must be even, got 7"),
    # the integer test comes first, then the bound, then the parity
    (lambda: search_shifts(FSS, 5, 7.0), "target girth must be an integer"),
    (lambda: method1(FSS, 5, [3]), "target girth must be >= 6"),
    (lambda: method2(5, WeightProfile((2, 3)), 3), "target girth must be >= 6"),
    (lambda: tanner_girth(H, 3), "cap must be >= 4"),
])
def test_one_parity_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, error, name", [
    (lambda: method1(FSS, 12, 5), ValueError, "m_schedule"),
    (lambda: WeightProfile(3), ValueError, "K"),
    (lambda: method2(10, (3, 3), 8), ValueError, "profile"),
    (lambda: ber_sweep(H, None, 0.5), ValueError, "ebn0_list"),
    (lambda: ber_sweep(H, 3.0, 0.5), ValueError, "ebn0_list"),
    # a config object is None or of its class: 0 is no default, a tuple no rule
    (lambda: ber_sweep(H, [3.0], 0.5, stop=0), ValueError, "stop"),
    (lambda: ber_sweep(H, [3.0], 0.5, stop=(5, 10)), ValueError, "stop"),
    (lambda: search_shifts(FSS, 5, 6, policy="random"), ValueError, "policy"),
    (lambda: method1(FSS, 12, [3], policy=3), ValueError, "policy"),
    (lambda: method2(5, WeightProfile((2, 3, 2)), 6, policy=0), ValueError,
     "policy"),
    (lambda: validate_fss(10**9, [[1, 2]]), SetSystemError, "point count"),
    (lambda: validate_fss(2**20 + 1, [[1, 2]]), SetSystemError, "point count"),
    (lambda: SetSystem.from_json('{"v": 1000000000, "blocks": [[1, 2]]}'),
     SetSystemError, "point count"),
    # closed_walks recurses once per step: girth targets and caps are bounded
    (lambda: search_shifts(FSS, 5, 2**64), ValueError, "target girth"),
    (lambda: method1(FSS, 2**64, [3]), ValueError, "target girth"),
    (lambda: method2(5, WeightProfile((2, 3, 2)), 2**64), ValueError,
     "target girth"),
    (lambda: inevitable_girth(validate_fss(3, [[1, 2], [2, 3], [1, 3]]), 2000),
     ValueError, "cap"),
    (lambda: search_shifts(FSS, 2**64, 6), ValueError, "modulus"),
    (lambda: method2(2**64, WeightProfile((2, 3, 2)), 6), ValueError, "v"),
    # a sweep point's iteration histogram holds max_iter + 1 counts
    (lambda: spa_decode(H, [1.5] * H.cols, 10_001), ValueError, "max_iter"),
    (lambda: spa_decode(H, [1.5] * H.cols, 2**64), ValueError, "max_iter"),
    (lambda: ber_sweep(H, [3.0], 0.5, max_iter=10_001), ValueError,
     "max_iter"),
    # row_ptr holds rows + 1 int64 offsets
    (lambda: BinaryMatrix(10**9, 3, [[0, 1]]), ValueError, "rows"),
    (lambda: BinaryMatrix(3, 2**24 + 1, [[0, 1]]), ValueError, "cols"),
])
def test_boundary_names_the_parameter(call, error, name):
    with pytest.raises(error, match=f"^{name} must be"):
        call()


def test_modulus_bound_follows_the_expansion_size():
    # its expansion would have 5 * 2**22 rows, over BinaryMatrix's bound
    with pytest.raises(ValueError, match="^modulus must be"):
        search_shifts(validate_fss(5, [[1, 2, 3, 4, 5]]), 2**22, 6)


@pytest.mark.parametrize("m, target, message", [
    (5, 7, "target girth must be even, got 7"),
    (5, 2**64, "target girth must be <= 128"),
    (0, 8, "modulus must be positive"),
    (2**64, 6, "modulus must be <= 4194304"),
])
def test_create_checks_target_and_modulus(m, target, message):
    # the public state constructor holds the checks search_shifts relies on
    with pytest.raises(ValueError, match=f"^{message}"):
        ShiftSearchState.create(FSS, m, target)


def test_point_bound_admits_its_own_count():
    assert validate_fss(2**20, [[1, 2**20]]).v == 2**20


def test_iteration_bound_admits_its_own_count():
    # the LLRs satisfy every check, so the decoder stops at once
    assert spa_decode(H, [1.5] * H.cols, 10_000).converged
    record, = ber_sweep(H, [3.0], 0.34, stop=StopRule(1, 2), max_iter=10_000)
    assert len(record.stats["iterations"]) == 10_001


def test_schedule_may_be_any_iterable():
    assert method1(FSS, 12, range(3, 4), policy=POLICY).ok


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_valid_arguments_pass(name):
    fn, kwargs, _ = TARGETS[name]
    with time_limit(LIMIT_S):
        fn(**kwargs)


@pytest.mark.parametrize("name", sorted(TARGETS))
@FUZZ
@given(data=st.data())
def test_mutated_argument(name, data):
    fn, kwargs, mutable = TARGETS[name]
    arg = data.draw(st.sampled_from(mutable))
    x = kwargs[arg]
    how = data.draw(st.sampled_from(["type", "shape", "size"]))
    if how == "type":
        new = data.draw(st.sampled_from(OTHER_TYPES))
    elif how == "shape":
        new = _mutated_json(data, x) if arg == "text" else _reshaped(data, x)
    else:
        new = _resized(data, x)
    _call(fn, {**kwargs, arg: new})


def test_every_fuzzed_argument_is_checked():
    # an argument that no value of another type can make raise is one the
    # function never reads, such as a modulus it takes from elsewhere
    unchecked = [(name, arg) for name, (fn, kwargs, mutable) in TARGETS.items()
                 for arg in mutable
                 if not any(_call(fn, {**kwargs, arg: x}) for x in OTHER_TYPES)]
    assert not unchecked
