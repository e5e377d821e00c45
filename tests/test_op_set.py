"""Every public tape op has a caller outside the tests.

A public module-level function of `gbsr.autodiff` must be called as
`ad.<name>(` somewhere in `src/gbsr`, or be wrapped by a layer of
`perfbench/layers.json`.  An op that only tests call is kept alive for them
alone; this fails until it is deleted or the pipeline uses it.
"""

import inspect
import json
from pathlib import Path

import pytest

from gbsr import autodiff

ROOT = Path(__file__).resolve().parents[1]


def public_ops():
    return sorted(name for name, obj in vars(autodiff).items()
                  if inspect.isfunction(obj) and obj.__module__ == autodiff.__name__
                  and not name.startswith("_"))


def test_op_set_is_not_empty():
    assert len(public_ops()) > 0


@pytest.mark.parametrize("name", public_ops())
def test_op_has_a_caller(name):
    source = "".join(path.read_text(encoding="utf-8")
                     for path in sorted((ROOT / "src" / "gbsr").glob("*.py")))
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    wrapped = {layer["wraps"] for layer in layers}
    assert f"ad.{name}(" in source or f"gbsr.autodiff:{name}" in wrapped, (
        f"autodiff.{name} has no caller in src/gbsr and no benchmark layer")
