"""Random circuits: the batched linear MNA assembly against the per-element reference.

Requires ``hypothesis`` (skipped when absent -- the runtime stack stays
numpy/scipy-only).  The circuits mix all eight linear element classes,
the ground spellings ``0``/``gnd``/``GND``, zero-valued capacitors and
controlled sources, parallel duplicates and self-loops, and sources that
share one waveform object.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from _reference_assembly import assert_matches_reference  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.circuit.elements import (  # noqa: E402
    VCCS,
    VCVS,
    Capacitor,
    CouplingCapacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit  # noqa: E402
from repro.circuit.sources import DC, PWL, SIN  # noqa: E402

#: ground spellings mixed with a few named nodes, so parallel duplicates,
#: grounded terminals and self-loops all occur
NODES = st.sampled_from(["0", "gnd", "GND", "a", "b", "c", "d"])
POSITIVE = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
SIGNED = st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3,
                                           allow_nan=False, allow_infinity=False))


def _element_specs(waveforms):
    """``(class, nodes, value)`` for each of the eight element classes."""
    two = st.tuples(NODES, NODES)
    four = st.tuples(NODES, NODES, NODES, NODES)
    source = st.one_of(st.sampled_from(waveforms), st.floats(min_value=-2, max_value=2))
    return st.one_of(
        st.tuples(st.just(Resistor), two, POSITIVE),
        st.tuples(st.just(Capacitor), two, st.one_of(st.just(0.0), POSITIVE)),
        st.tuples(st.just(CouplingCapacitor), two, st.one_of(st.just(0.0), POSITIVE)),
        st.tuples(st.just(Inductor), two, POSITIVE),
        st.tuples(st.just(VoltageSource), two, source),
        st.tuples(st.just(CurrentSource), two, source),
        st.tuples(st.just(VCCS), four, SIGNED),
        st.tuples(st.just(VCVS), four, SIGNED),
    )


@st.composite
def circuits(draw):
    # shared waveform objects: several sources may drive one B column
    waveforms = [DC(1.0), PWL([(0.0, 0.0), (1e-9, 1.0)]), SIN(0.0, 0.5, 1e9)]
    specs = draw(st.lists(_element_specs(waveforms), min_size=1, max_size=24))
    ckt = Circuit("random")
    for k, (cls, nodes, value) in enumerate(specs):
        ckt.add(cls(f"X{k}", *nodes, value))
    return ckt


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ckt=circuits())
def test_random_circuits_match_the_reference_bitwise(ckt):
    if ckt.num_nodes + sum(el.needs_branch_current for el in ckt.elements) == 0:
        with pytest.raises(ValueError):
            ckt.build()
        return
    assert_matches_reference(ckt)
