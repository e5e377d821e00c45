"""The benchmark's layer map names only functions that exist.

`perfbench/layers.json` lists the functions a traced benchmark run wraps.
Deleting or renaming one of them would only surface when that run starts;
this reads the file and resolves every target instead.
"""

import importlib
import json
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"


def wrap_targets():
    return [layer["wraps"] for layer in json.loads(LAYERS_FILE.read_text())["layers"]]


def test_layer_map_is_not_empty():
    assert len(wrap_targets()) > 0


@pytest.mark.parametrize("target", wrap_targets())
def test_wrapped_function_exists(target):
    module_name, _, path = target.partition(":")
    assert module_name.split(".")[0] == "gbsr"
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer patches the owner's own attribute, so it must live there
    assert attr in vars(owner), f"{target} is not an attribute of {owner!r}"
    assert callable(vars(owner)[attr])
