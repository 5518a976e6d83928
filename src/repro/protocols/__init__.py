"""Case-study protocols (Table 1 of the paper).

Each module provides the protocol's atomic-action program, its IS proof
artifacts (invariant action, choice function, left-mover abstractions,
well-founded measure), the resulting sequentialization, the safety spec,
and ``verify(<PARAMETERS>, **options)``. ``verify`` only describes the
instance (:class:`~repro.protocols.common.Instance`) and hands it to the
one pipeline, :func:`~repro.protocols.common.verify_protocol`, which
returns a :class:`~repro.protocols.common.ProtocolReport`; ``options``
are the fields of :class:`~repro.protocols.common.RunOptions`, where
every engine knob is documented.

========================  =====  =======================================
Module                    #IS    Spec
========================  =====  =======================================
``broadcast``             1or2   all decisions equal the maximum value
``pingpong``              1      handlers see increasing numbers / acks
``prodcons``              1      consumer dequeues increasing numbers
``nbuyer``                4      order total = sum of contributions
``changroberts``          2      exactly the max-id node becomes leader
``twophase``              4      uniform decision; commit => all yes
``paxos``                 1      no two rounds decide different values
========================  =====  =======================================
"""

from . import broadcast, changroberts, nbuyer, paxos, pingpong, prodcons, twophase
from .common import GHOST, Instance, ProtocolReport, RunOptions, verify_protocol

ALL_PROTOCOLS = {
    "broadcast": broadcast,
    "pingpong": pingpong,
    "prodcons": prodcons,
    "nbuyer": nbuyer,
    "changroberts": changroberts,
    "twophase": twophase,
    "paxos": paxos,
}

__all__ = [
    "broadcast",
    "changroberts",
    "nbuyer",
    "paxos",
    "pingpong",
    "prodcons",
    "twophase",
    "GHOST",
    "Instance",
    "ProtocolReport",
    "RunOptions",
    "verify_protocol",
    "ALL_PROTOCOLS",
]
