import os
import subprocess
import sys

import pytest

from ymesh import cli
from ymesh.filtration import (classify_case, audit_filtration, binding_order, FiltrationSpec,
                              FiltrationUnavailable, all_circuits)
from ymesh.pins import Pin, d_of_s
from ymesh.zoo import zoo_pin, BOUNDARY_PINS

EXPECTED_CASE = {
    "lower_pentagram": "long_diagonal",
    "pentagram": "long_diagonal",
    "higher_pentagram": "long_diagonal",
    "sideways": "long_side",
    "short_diagonal": "triangle_c",
    "dented": "long_diagonal",
    "gopher": "triangle_c",
    "penguin": "boundary",
    "rabbit": "triangle_c",
    "giraffe": "triangle_c",
    "kangaroo": "triangle_b",
    "elephant": "triangle_b",
}


def test_classify_case(zoo_name):
    assert classify_case(zoo_pin(zoo_name)) == EXPECTED_CASE[zoo_name]


def test_audit_all_seven_conditions_non_boundary(zoo_name):
    pin = zoo_pin(zoo_name)
    if zoo_name in BOUNDARY_PINS:
        pytest.skip("boundary pins covered by the dedicated nonexistence test")
    report = audit_filtration(pin)
    # |H_t| = D(S)+1 at every audited time (asserted inside the audit)
    assert report["H_size"] == d_of_s(pin) + 1
    assert report["checked_t"] >= 6 * pin.m


def test_audit_of_a_long_side_pin():
    # a hand-written order of its f-side failed condition 7 on this pin
    pin = Pin([(-2, 0), (4, 2), (-4, 5), (-3, 0)])
    assert classify_case(pin) == "long_side"
    assert audit_filtration(pin)["H_size"] == d_of_s(pin) + 1


def _chain(*links):
    """binding_order's binding for cells bound in a chain: each (r, q) binds
    r by a circuit named after it whose other members are q and (9, 9),
    which is not a cell."""
    return {r: [(("L1", r), [q, (9, 9)])] if q else [] for r, q in links}


def test_binding_order_keeps_a_valid_order():
    binding = _chain(((0, 0), None), ((1, 0), (0, 0)), ((2, 0), (1, 0)), ((0, 1), None))
    cells = [(0, 0), (1, 0), (0, 1), (2, 0)]
    assert binding_order(cells, binding) == cells


def test_binding_order_moves_each_cell_after_its_members():
    binding = _chain(((0, 0), None), ((1, 0), (2, 0)), ((2, 0), (3, 0)), ((3, 0), None))
    order = binding_order([(0, 0), (1, 0), (2, 0), (3, 0)], binding)
    assert order == [(0, 0), (3, 0), (2, 0), (1, 0)]


def test_binding_order_rejects_a_cycle():
    binding = _chain(((0, 0), (2, 0)), ((1, 0), (0, 0)), ((2, 0), (1, 0)), ((3, 0), None))
    with pytest.raises(FiltrationUnavailable,
                       match=r"\(0, 0\) .* circuit \('L1', \(0, 0\)\)") as cycle:
        binding_order([(3, 0), (0, 0), (1, 0), (2, 0)], binding)
    # which the command line reports as a configuration error
    with pytest.raises(SystemExit) as stop:
        cli._fail(cycle.value)
    assert stop.value.code == 2


def test_boundary_pin_has_no_filtration():
    with pytest.raises(FiltrationUnavailable):
        FiltrationSpec(zoo_pin("penguin"))


def test_birth_and_death_reject_rows_outside_the_strip():
    spec = FiltrationSpec(zoo_pin("pentagram"))
    for bound in (spec.birth, spec.death):
        with pytest.raises(ValueError, match="row 99 outside strip"):
            bound((0, 99))


def test_audit_raises_under_python_O():
    """The seven conditions raise AssertionError themselves, so ``python -O``,
    which strips assert statements, still fails an audit of a broken
    filtration."""
    code = ("from ymesh.filtration import FiltrationSpec, audit_filtration\n"
            "from ymesh.zoo import zoo_pin\n"
            "assert False, 'not run under -O'\n"
            "FiltrationSpec.g_point = lambda self, kind, base: (0, 0)\n"
            "try:\n"
            "    print(audit_filtration(zoo_pin('pentagram')))\n"
            "except AssertionError:\n"
            "    print('raised')\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert (res.returncode, res.stdout) == (0, "raised\n"), res.stderr


def test_circuits_enumeration(zoo_name):
    pin = zoo_pin(zoo_name)
    circuits = all_circuits(pin, 0, 6)
    assert circuits, "window should contain at least one circuit"
    assert {k for (k, _) in circuits} <= {"L1", "L2", "P3"}
