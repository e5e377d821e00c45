"""Every public tape op has a caller outside the tests, one test per op.

A public top-level function of `gbsr.autodiff` must be called as
`ad.<name>(...)` somewhere in `src/gbsr`, or be wrapped by a layer of
`perfbench/layers.json`.  An op that only tests call is kept alive for them
alone; its test fails until it is deleted or the pipeline uses it.  The check
is the op-set rule of `test_structure`, which also holds it against a plant;
here each op gets its own verdict.
"""

import pytest

from test_structure import SOURCES, op_faults, parse, public_ops

TREES = parse(SOURCES)
OPS = {op.name: op for op in public_ops(TREES)}


def test_op_set_is_not_empty():
    assert len(OPS) > 0


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_has_a_caller(name):
    assert op_faults(TREES, [OPS[name]]) == []
