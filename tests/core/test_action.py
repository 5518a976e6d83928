"""Tests for gated atomic actions and pending asyncs."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    Action,
    EMPTY,
    Multiset,
    Store,
    Transition,
    assert_action,
    havoc_action,
    pa,
    pas,
    skip_action,
    transition,
)


def test_pa_constructor():
    pending = pa("Broadcast", i=3)
    assert pending.action == "Broadcast"
    assert pending.locals["i"] == 3
    assert "Broadcast" in repr(pending)


def test_pa_no_params_repr():
    assert repr(pa("Main")) == "Main()"


def test_pas_builds_multiset():
    bag = pas(pa("A", i=1), pa("A", i=1), pa("B"))
    assert bag.count(pa("A", i=1)) == 2
    assert len(bag) == 3


def test_transition_helper():
    t = transition(Store({"x": 1}), pa("A"))
    assert t.new_global["x"] == 1
    assert t.created == Multiset([pa("A")])


def test_transition_default_empty():
    assert Transition(Store()).created == EMPTY


def test_action_enabled_requires_gate_and_transition():
    blocked = Action("B", lambda _s: True, lambda _s: iter(()))
    assert not blocked.enabled(Store())
    gated = Action("G", lambda _s: False, lambda s: iter([Transition(Store())]))
    assert not gated.enabled(Store())
    live = Action("L", lambda _s: True, lambda s: iter([Transition(Store())]))
    assert live.enabled(Store())


def test_outcomes_lists_transitions():
    action = havoc_action("H", lambda s: [Store({"x": 0}), Store({"x": 1})])
    outs = action.outcomes(Store())
    assert len(outs) == 2
    assert {t.new_global["x"] for t in outs} == {0, 1}


def test_assert_action_gate():
    action = assert_action("A", lambda s: s["x"] > 0, lambda s: s.restrict(["x"]))
    assert action.gate(Store({"x": 1}))
    assert not action.gate(Store({"x": 0}))
    [t] = action.outcomes(Store({"x": 5}))
    assert t.new_global == Store({"x": 5})


def test_skip_action_noop():
    action = skip_action("S", lambda s: s.restrict(["x"]))
    assert action.gate(Store({"x": 0}))
    [t] = action.outcomes(Store({"x": 0, "l": 9}))
    assert t.new_global == Store({"x": 0})
    assert t.created == EMPTY


def test_pending_async_hashable_and_eq():
    assert pa("A", i=1) == pa("A", i=1)
    assert pa("A", i=1) != pa("A", i=2)
    assert len({pa("A", i=1), pa("A", i=1)}) == 1


# ---------------------------------------------------------------------- #
# The hash slot: computed once, never pickled
# ---------------------------------------------------------------------- #

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _values():
    return (
        pa("Collect", i=2),
        Transition(Store({"x": 1}), Multiset([pa("A"), pa("B", j=(1, "v"))])),
    )


def test_value_classes_keep_their_fields_and_hash_definition():
    """Same fields as before the slot (the rcache digests hash
    ``dataclasses.fields``), the same hash as the generated dataclass
    hash, and no per-instance ``__dict__``."""
    pending, outcome = _values()
    assert [f.name for f in dataclasses.fields(pending)] == ["action", "locals"]
    assert [f.name for f in dataclasses.fields(outcome)] == ["new_global", "created"]
    assert hash(pending) == hash((pending.action, pending.locals))
    assert hash(outcome) == hash((outcome.new_global, outcome.created))
    assert not hasattr(pending, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pending.action = "Other"


def test_equality_is_by_value_after_identity():
    pending = pa("A", i=1)
    assert pending == pending
    assert pending == pa("A", i=1)
    assert pending != pa("B", i=1)
    assert pending != ("A", Store({"i": 1}))
    outcome = transition(Store({"x": 1}), pa("A"))
    assert outcome == transition(Store({"x": 1}), pa("A"))
    assert outcome != transition(Store({"x": 2}), pa("A"))
    assert outcome != Transition(Store({"x": 1}))


_LOAD_SCRIPT = """
import json, pickle, sys
sys.path.insert(0, {src!r})
from repro.core import Multiset, Store, Transition, pa

loaded = pickle.loads(sys.stdin.buffer.read())
fresh = (
    pa("Collect", i=2),
    Transition(Store({{"x": 1}}), Multiset([pa("A"), pa("B", j=(1, "v"))])),
)
print(json.dumps({{
    "equal": [a == b for a, b in zip(loaded, fresh)],
    "hash": [hash(a) == hash(b) for a, b in zip(loaded, fresh)],
    "member": [a in {{b}} for a, b in zip(loaded, fresh)],
}}))
"""


def test_a_pickled_hash_never_crosses_hash_seeds():
    """Values hashed (slot filled) and pickled under one hash seed, then
    loaded under another, hash as fresh values there do: the slot holds a
    seed-dependent number and must not travel."""
    values = _values()
    for value in values:
        hash(value)
    env = dict(os.environ)
    own = os.environ.get("PYTHONHASHSEED")
    env["PYTHONHASHSEED"] = "7" if own == "4242" else "4242"
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_SCRIPT.format(src=SRC)],
        input=pickle.dumps(values),
        capture_output=True,
        env=env,
        check=True,
    )
    assert json.loads(proc.stdout) == {
        "equal": [True, True],
        "hash": [True, True],
        "member": [True, True],
    }


#: ``pa("Collect", i=2)`` and ``Transition(Store({"x": 1}),
#: Multiset([pa("A")]))`` as pickled (protocol 2) by the plain frozen
#: dataclasses, before the hash slot: a field-dict state.
PLAIN_PA = (
    b"\x80\x02crepro.core.action\nPendingAsync\nq\x00)\x81q\x01}q\x02(X\x06"
    b"\x00\x00\x00actionq\x03X\x07\x00\x00\x00Collectq\x04X\x06\x00\x00\x00"
    b"localsq\x05crepro.core.store\nStore\nq\x06)\x81q\x07}q\x08X\x01\x00\x00"
    b"\x00iq\tK\x02sbub."
)
PLAIN_TRANSITION = (
    b"\x80\x02crepro.core.action\nTransition\nq\x00)\x81q\x01}q\x02(X\n\x00"
    b"\x00\x00new_globalq\x03crepro.core.store\nStore\nq\x04)\x81q\x05}q\x06X"
    b"\x01\x00\x00\x00xq\x07K\x01sbX\x07\x00\x00\x00createdq\x08crepro.core."
    b"multiset\nMultiset\nq\t)\x81q\n}q\x0bcrepro.core.action\nPendingAsync"
    b"\nq\x0c)\x81q\r}q\x0e(X\x06\x00\x00\x00actionq\x0fX\x01\x00\x00\x00Aq"
    b"\x10X\x06\x00\x00\x00localsq\x11h\x04)\x81q\x12}q\x13bubK\x01sbub."
)


def test_plain_dataclass_pickles_load_and_are_still_written():
    """A cache filled before the slot existed holds field-dict pickles:
    they load equal (a slotted dataclass's generated ``__setstate__``
    would read the dict's keys as field values). The format written now
    is the same bytes, so such a cache also reads what this one writes."""
    pending = pickle.loads(PLAIN_PA)
    assert pending == pa("Collect", i=2)
    assert (pending.action, pending.locals) == ("Collect", Store({"i": 2}))
    assert hash(pending) == hash(pa("Collect", i=2))
    outcome = pickle.loads(PLAIN_TRANSITION)
    assert outcome == transition(Store({"x": 1}), pa("A"))
    assert hash(outcome) == hash(transition(Store({"x": 1}), pa("A")))
    assert pickle.dumps(pa("Collect", i=2), 2) == PLAIN_PA
    assert pickle.dumps(transition(Store({"x": 1}), pa("A")), 2) == PLAIN_TRANSITION
