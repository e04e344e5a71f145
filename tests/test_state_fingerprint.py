"""The type-dispatched state digest against its ``isinstance``-chain oracle.

:func:`repro.engine.hardening.state_fingerprint` keys DPOR's state cache,
so a digest that differs from the oracle's (``tests/oracles.py``) in any
state could change which subtrees are pruned.  These tests compare the two
at every new DPOR point of the study's DPOR subjects and of random
programs, and compare :func:`_stable_value` on crafted values at the edges
of its caps (nesting depth 5, 64 items) and probes.
"""

import enum
from collections import OrderedDict, namedtuple
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import Budget
from repro.core import dpor as dpor_module
from repro.core.dpor import DPORExplorer
from repro.engine import hardening, sync_only_filter
from repro.racedetect import detect_races
from repro.runtime import Mutex, SharedArray, SharedVar
from repro.runtime.context import ThreadContext, ThreadHandle
from repro.sctbench import get as get_benchmark
from repro.sctbench.fixed import FIXED_TWINS

from . import oracles
from .test_dpor import build_rich_program, rich_program_st

#: The SCTBench subjects of the end-to-end benchmark's DPOR workload.
POR_SUBJECTS = (
    "chess.WSQ",
    "CS.din_phil7_sat",
    "CS.queue_bad",
    "CB.pbzip2-0.9.4",
    "CS.reorder_5_bad",
    "CS.reorder_10_bad",
    "CS.twostage_100_bad",
)


def same(a, b) -> bool:
    """Equal and of equal types throughout.  Digests hold only tuples and
    scalars, whose ``repr`` tells ``True`` from ``1`` and ``Colour.RED``
    from ``1`` (which ``==`` does not) and matches NaN with NaN."""
    return repr(a) == repr(b)


def fingerprints_agree(program, limit: int, visible_filter) -> int:
    """Explore ``program`` with DPOR, checking the production digest
    against the oracle's at every new point; returns the points checked."""
    production = hardening.state_fingerprint
    checked = []

    def both(kernel, enabled):
        digest = production(kernel, enabled)
        expected = oracles.state_fingerprint(kernel, enabled)
        assert same(digest, expected), f"digest differs at point {len(checked)}"
        checked.append(digest is None)
        return digest

    explorer = DPORExplorer(
        visible_filter=visible_filter, budget=Budget(max_executions=300)
    )
    with mock.patch.object(dpor_module, "state_fingerprint", both):
        explorer.explore(program, limit)
    return len(checked)


def study_filter(program):
    report = detect_races(program, runs=10, seed=0)
    return report.visible_filter() if report.has_races else sync_only_filter


@pytest.mark.parametrize("name", POR_SUBJECTS)
def test_por_subjects(name):
    program = get_benchmark(name).make()
    limit = 3 if name == "CS.twostage_100_bad" else 20
    assert fingerprints_agree(program, limit, study_filter(program)) > 0


@pytest.mark.parametrize("factory", FIXED_TWINS, ids=lambda f: f().name)
def test_fixed_twins(factory):
    program = factory()
    assert fingerprints_agree(program, 100, study_filter(program)) > 0


@given(threads=rich_program_st)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_programs(threads):
    program = build_rich_program(threads)
    fingerprints_agree(program, 200, study_filter(program))


# --- crafted values ----------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 1


Pair = namedtuple("Pair", "left right")


class Box:
    pass


class Slotted:
    __slots__ = ("x",)

    def __init__(self):
        self.x = 1


def nested(value, levels: int):
    for _ in range(levels):
        value = [value]
    return value


def _inner():
    counter = 3
    yield counter


def _outer():
    delegate = _inner()
    items = [1, 2]
    yield from delegate


def _chain(levels, obj):
    if levels:
        sub = _chain(levels - 1, obj)
        yield from sub
    else:
        yield obj


def started(gen):
    next(gen)
    return gen


def finished(gen):
    for _ in gen:
        pass
    return gen


CRAFTED = {
    "scalars": (0, -7, 2.5, float("nan"), "s", b"b", None),
    "bool": (True, False, [True, 1], {"flag": False}),
    "int_enum": (Colour.RED, [Colour.RED], {"c": Colour.RED}),
    "past_depth_5": tuple(nested(1, n) for n in range(8)),
    "leaves_past_depth_5": tuple(
        wrap(nested(leaf, n))
        for leaf in (SharedVar(0, "deep"), ThreadHandle(1), ThreadContext(1))
        for n in range(7)
        for wrap in (lambda v: v, lambda v: {"k": v}, lambda v: (v,))
    ),
    "generator_frames_past_depth_5": tuple(
        started(_chain(n, SharedVar(0, "c"))) for n in range(7)
    ),
    "namespace_dict_at_depth_5": (
        nested(SimpleNamespace(a=1), 3),
        nested(SimpleNamespace(a=1), 4),
        nested(SimpleNamespace(a=[1]), 3),
    ),
    "64_and_65_items": (
        list(range(64)),
        list(range(65)),
        tuple(range(65)),
        {i: i for i in range(64)},
        {i: i for i in range(65)},
    ),
    "unsortable_keys": ({1: "a", "b": 2}, {None: 1, 0: 2}, [{1: 1, "x": 1}]),
    "yield_from": (started(_outer()), finished(_outer()), _outer()),
    "gi_frame_attribute": (
        SimpleNamespace(gi_frame=None, x=1),
        SimpleNamespace(gi_frame=started(_inner()).gi_frame),
        SimpleNamespace(gi_frame=5),
    ),
    "runtime_objects": (
        ThreadHandle(2),
        ThreadContext(1),
        SharedVar(0, "v"),
        Mutex("m"),
        SharedArray(2, 0, "a"),
    ),
    "subclasses": (Pair(1, [2]), OrderedDict(b=1, a=2)),
    "other": (Box, Box(), Slotted(), len, lambda: 1, object(), {1, 2}),
}


def outcome(fn, value, depth):
    try:
        return "ok", fn(value, depth)
    except Exception as exc:  # the oracle's own exceptions are part of it
        return "raises", type(exc)


@pytest.mark.parametrize("group", sorted(CRAFTED))
def test_crafted_values(group):
    for value in CRAFTED[group]:
        for depth in range(7):
            got = outcome(hardening._stable_value, value, depth)
            want = outcome(oracles._stable_value, value, depth)
            assert got[0] == want[0] and same(got[1], want[1]), (value, depth)


def test_crafted_values_reach_every_branch():
    """The crafted set exercises the caps it is meant to: each of these
    is unstable in the oracle itself."""
    unstable = hardening._UNSTABLE
    assert oracles._stable_value(nested(1, 6)) is unstable
    assert oracles._stable_value(nested(SimpleNamespace(a=1), 4)) is unstable
    assert oracles._stable_value(nested(SimpleNamespace(a=1), 3)) is not unstable
    assert oracles._stable_value(list(range(65))) is unstable
    assert oracles._stable_value({i: i for i in range(65)}) is unstable
    assert oracles._stable_value({1: "a", "b": 2}) is unstable
    assert oracles._stable_value(started(_outer()))[0] > 0
