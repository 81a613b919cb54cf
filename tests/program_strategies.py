"""Hypothesis strategies for random well-formed round programs.

Shared by the vec differential suites: ``programs()`` draws a
:class:`~repro.protocols.ir.RoundProgram` with 1-3 states, a 1-3 slot
schedule (cyclic or not), random transition tables with marks, optional
idle-instead-of-listen rules and ``on_end`` marks.  Probabilities come from
a small grid: the draw discipline makes equality exact, so any probability
works, but a coarse grid hits the 0/1 edges often.
"""

from hypothesis import strategies as st

from repro.protocols import RoundProgram, StateRule, Transition
from repro.sim.feedback import Feedback

_PROBS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def _transitions(num_states):
    return st.builds(
        Transition,
        next_state=st.one_of(st.none(), st.integers(0, num_states - 1)),
        mark=st.sampled_from([None, "m1", "m2"]),
        mark_node_id=st.booleans(),
    )


def _tables(num_states):
    return st.fixed_dictionaries({f: _transitions(num_states) for f in Feedback})


def _state_rules(num_states, schedule_length):
    return st.builds(
        StateRule,
        channel=st.integers(1, 2),
        probabilities=st.tuples(*[_PROBS] * schedule_length),
        on_transmit=_tables(num_states),
        on_listen=_tables(num_states),
        on_idle=st.one_of(st.none(), _transitions(num_states)),
        on_end=st.one_of(
            st.none(),
            st.builds(
                Transition,
                next_state=st.none(),
                mark=st.sampled_from([None, "end"]),
                mark_node_id=st.booleans(),
            ),
        ),
        idle_instead_of_listen=st.booleans(),
    )


@st.composite
def programs(draw):
    """A random well-formed two-channel :class:`RoundProgram`."""
    num_states = draw(st.integers(1, 3))
    schedule_length = draw(st.integers(1, 3))
    return RoundProgram(
        name="fuzz",
        schedule_length=schedule_length,
        cycle=draw(st.booleans()),
        states=tuple(
            draw(_state_rules(num_states, schedule_length))
            for _ in range(num_states)
        ),
        initial_state=draw(st.integers(0, num_states - 1)),
    )
