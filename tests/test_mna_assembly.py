"""The batched linear MNA assembly: the per-element reference and its error surfaces.

``MNASystem`` stamps every linear element of a class at once from the
class's ``STAMPS`` table; ``_reference_assembly`` is the per-element
stamper it replaced, which every registered circuit factory must match
bit for bit.
"""

import pytest
from _factories import build_small, circuit_factory_names
from _reference_assembly import assert_matches_reference

from repro.circuit.elements import CircuitElement, LinearStamps, Resistor
from repro.circuit.netlist import Circuit

# -- the registered circuit factories -------------------------------------------------


@pytest.mark.parametrize("name", circuit_factory_names())
def test_every_registered_factory_matches_the_reference(name):
    assert_matches_reference(build_small(name))


def test_one_element_class_stamped_in_several_runs_keeps_circuit_order():
    # resistors before and after the capacitors: the parallel duplicates on
    # node "a" must be summed in circuit order
    ckt = Circuit("interleaved")
    ckt.add_vsource("V1", "a", "0", 1.0)
    for k in range(5):
        ckt.add_resistor(f"R{k}", "a", "b", 10.0 ** (k - 2) * 3.0)
        ckt.add_capacitor(f"C{k}", "b", "gnd", 1e-15 * (k + 1))
        ckt.add_vccs(f"G{k}", "b", "GND", "a", "b", 1e-3 * (k - 2))
    assert_matches_reference(ckt)


# -- error surfaces -------------------------------------------------------------------


def test_unknown_node_raises_key_error_naming_node_and_circuit():
    ckt = Circuit("lost")
    ckt.add_resistor("R1", "a", "0", 1.0)
    # bypasses Circuit.add, so node "x" is never registered
    ckt.elements.append(Resistor("R2", "a", "x", 1.0))
    with pytest.raises(KeyError, match="unknown node 'x' in circuit 'lost'"):
        ckt.build()


def test_element_class_without_stamp_table_fails_at_build():
    class Gyrator(CircuitElement):
        pass

    ckt = Circuit("gyro")
    ckt.add_resistor("R1", "a", "0", 1.0)
    ckt.add(Gyrator("X1", ("a", "0")))
    with pytest.raises(TypeError, match="Gyrator"):
        ckt.build()


def test_stamp_table_naming_a_missing_terminal_fails_at_build():
    class Broken(CircuitElement):
        STAMPS = LinearStamps(G=((0, 2, 1.0),))

    ckt = Circuit("broken")
    ckt.add(Broken("X1", ("a", "0")))
    with pytest.raises(TypeError, match="Broken"):
        ckt.build()


def test_instances_of_one_class_must_share_their_node_count():
    class Bus(CircuitElement):
        STAMPS = LinearStamps(C=((0, 0, 1.0),))

    ckt = Circuit("bus")
    ckt.add(Bus("X1", ("a", "b")))
    ckt.add(Bus("X2", ("a",)))
    with pytest.raises(TypeError, match="number of nodes"):
        ckt.build()
