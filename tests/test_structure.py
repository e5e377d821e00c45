"""The package's structural rules, and the README's library example.

Each rule is a pure function from a `{file name: source text}` mapping of
`src/gbsr/*.py` (recursive, names relative to `src/gbsr`) to a list of
`file:line` faults.  `test_tree_obeys` holds the tree to every rule, and
`test_rule_catches_plant` writes one violation into an in-memory copy of the
mapping and checks that its rule reports the planted line, so a rule that
stops seeing anything fails too.
"""

import ast
import functools
import itertools
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gbsr"
SOURCES = {path.relative_to(PACKAGE).as_posix(): path.read_text(encoding="utf-8")
           for path in sorted(PACKAGE.rglob("*.py"))}
# the autodiff functions a traced benchmark run wraps
WRAPPED = {layer["wraps"] for layer in json.loads(
    (ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))["layers"]}

# the tables that declare the parameter blocks, and the block names
BLOCK_TABLES = {"denoiser.py": "HEAD_BLOCKS", "objective.py": "PARAM_BLOCKS"}
BLOCKS = {"embeddings", "layer1_weight", "layer1_bias", "layer2_weight", "layer2_bias"}
ENVIRONMENT = {"environ", "environb", "getenv", "putenv", "unsetenv"}
# library arguments that take a key's value under another name
ALIASES = {"layer_count", "observation_bias", "cutoff"}


@functools.cache
def parse_file(name, text):
    return ast.parse(text, filename=name)


def parse(sources):
    """Each file's tree; a file parses once per text, so a plant parses only
    the file it changes.  The rules only read the trees."""
    return {name: parse_file(name, text) for name, text in sources.items()}


def inside(tree, name):
    """The nodes of `tree`'s top-level `def name` or `name = ...`, as
    `ast.walk` yields them: each such statement comes first."""
    return [node for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name
            or isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets)
            for node in ast.walk(stmt)]


def declared_keys(trees):
    """The keys `config.py` declares: each `config_field` class field."""
    return {stmt.target.id for cls in trees["config.py"].body if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.value, ast.Call)
            and getattr(stmt.value.func, "id", None) == "config_field"}


def called(node):
    """The name a call calls, bare or as an attribute; None for others."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def pool(sources):
    """No module but graph imports concurrent.futures or threading, and the
    one `.submit(` in the package is in graph.ordered_map."""
    trees = parse(sources)
    faults = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if name != "graph.py" and any(
                    module.split(".")[0] in ("concurrent", "threading") for module in modules):
                faults.append(f"{name}:{node.lineno} imports {', '.join(modules)}")
    span = inside(trees["graph.py"], "ordered_map")[:1]
    first, last = (span[0].lineno, span[0].end_lineno) if span else (0, -1)
    submits = [(name == "graph.py" and first <= line <= last, f"{name}:{line}")
               for name, text in sources.items() for match in re.finditer(r"\.submit\(", text)
               for line in [text.count("\n", 0, match.start()) + 1]]
    if len(submits) != 1 or not submits[0][0]:
        faults.append(f".submit( must appear once, in graph.ordered_map: "
                      f"{[at for _, at in submits]}")
    return faults


def block_names(sources):
    """The five block names are string constants only in the tables that
    declare them, denoiser.HEAD_BLOCKS and objective.PARAM_BLOCKS, and each
    once; every other reader iterates those tables."""
    found = []  # (name, in a table, where) of each block-name constant
    for name, tree in parse(sources).items():
        table = ({id(node) for node in inside(tree, BLOCK_TABLES[name])}
                 if name in BLOCK_TABLES else set())
        found += [(node.value, id(node) in table, f"{name}:{node.lineno}")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in BLOCKS]
    faults = []
    for block in sorted(BLOCKS):
        at = [(ok, where) for value, ok, where in found if value == block]
        if len(at) != 1 or not at[0][0]:
            faults.append(f"{block!r} must be spelled once, in HEAD_BLOCKS or "
                          f"PARAM_BLOCKS: {[where for _, where in at]}")
    return faults


def environment(sources):
    """Every setting is a config key or a flag, so no module touches
    os.environ, os.environb, os.getenv, os.putenv or os.unsetenv, by
    attribute or by `from os import`."""
    faults = []
    for name, tree in parse(sources).items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                faults.append(f"{name}:{node.lineno} uses os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                faults += [f"{name}:{node.lineno} imports os.{alias.name}"
                           for alias in node.names if alias.name in ENVIRONMENT]
    return faults


def epoch_loop(sources):
    """trainer.epochs is the only loop over epochs: the one call of
    train_epoch in the package is in it, and fit and the CLI iterate it."""
    trees = parse(sources)
    loop = {id(node) for node in inside(trees["trainer.py"], "epochs")}
    calls = [(name == "trainer.py" and id(node) in loop, f"{name}:{node.lineno}")
             for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and called(node) == "train_epoch"]
    if len(calls) != 1 or not calls[0][0]:
        return [f"train_epoch must be called once, in trainer.epochs: "
                f"{[at for _, at in calls]}"]
    return []


def interval_per_key(sources):
    """config.py imports no gbsr module but errors, every config_field call
    is in it, and no check_number call names a declared key or an alias: an
    entry point reads a key's interval through config.check_declared."""
    trees = parse(sources)
    faults = [f"config.py:{node.lineno} imports a gbsr module other than errors"
              for node in ast.walk(trees["config.py"])
              if isinstance(node, ast.ImportFrom)
              and (node.level or node.module.startswith("gbsr"))
              and (node.level, node.module) != (1, "errors")
              or isinstance(node, ast.Import)
              and any(alias.name.split(".")[0] == "gbsr" for alias in node.names)]
    declared = declared_keys(trees)
    if not declared:
        faults.append("config.py declares no key")
    named = declared | ALIASES
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if called(node) == "config_field" and name != "config.py":
                faults.append(f"{name}:{node.lineno} calls config_field outside config.py")
            elif (called(node) == "check_number" and node.args
                  and isinstance(node.args[0], ast.Constant) and node.args[0].value in named):
                faults.append(f"{name}:{node.lineno} spells the interval of "
                              f"{node.args[0].value!r}; use config.check_declared")
    return faults


def is_literal(node):
    """A constant, or a tuple or list of constants."""
    return isinstance(node, ast.Constant) or isinstance(node, (ast.Tuple, ast.List)) and all(
        isinstance(element, ast.Constant) for element in node.elts)


def literal_defaults(sources):
    """A parameter named after a declared key or an alias takes its default
    from the declaration (`RunConfig.split_ratio`), never as a literal that
    a change to the declaration would leave behind."""
    trees = parse(sources)
    named = declared_keys(trees) | ALIASES
    faults = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = itertools.chain(zip(positional[len(positional) - len(args.defaults):],
                                        args.defaults),
                                    zip(args.kwonlyargs, args.kw_defaults))
            faults += [f"{name}:{default.lineno} gives {arg.arg} the literal default "
                       f"{ast.unparse(default)}; use its declaration's"
                       for arg, default in pairs
                       if default is not None and arg.arg in named and is_literal(default)]
    return faults


def public_ops(trees):
    """The public top-level functions of autodiff.py."""
    return [stmt for stmt in trees["autodiff.py"].body
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]


def op_faults(trees, ops):
    """A fault for each of `ops` that no `ad.<name>(...)` call in the package
    reaches and no perfbench layer wraps."""
    callers = {node.func.attr for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and isinstance(node.func.value, ast.Name) and node.func.value.id == "ad"}
    return [f"autodiff.py:{op.lineno} defines {op.name}, which has no ad.{op.name}(...) "
            f"call in src/gbsr and no benchmark layer"
            for op in ops if op.name not in callers and f"gbsr.autodiff:{op.name}" not in WRAPPED]


def op_set(sources):
    """Every public autodiff function is called as `ad.<name>(...)` in the
    package or wrapped by a perfbench layer: no tape op lives on for the
    tests alone."""
    trees = parse(sources)
    ops = public_ops(trees)
    return op_faults(trees, ops) if ops else ["autodiff.py defines no public op"]


RULES = [pool, block_names, environment, epoch_loop, interval_per_key, literal_defaults,
         op_set]

# (rule, file, a snippet that occurs once in it, what replaces it): each is
# a violation of its rule that a real edit could make, and the rule must
# report the last line the replacement reaches
PLANTS = {
    "pool-import": (pool, "hsic.py", "import numpy as np\n",
                    "import numpy as np\nfrom concurrent.futures import ThreadPoolExecutor\n"),
    "pool-submit": (pool, "graph.py", "from .errors import DataError\n",
                    "from .errors import DataError\n"
                    "def submit_later(pool, fn): return pool.submit(fn)\n"),
    "block-names": (block_names, "trainer.py", "from .ioutil import atomic_write_bytes\n",
                    "from .ioutil import atomic_write_bytes\nFIRST_BLOCK = \"layer1_bias\"\n"),
    "environment-attribute": (environment, "ioutil.py", "import tempfile\n",
                              "import tempfile\nSCRATCH = os.environ.get(\"TMPDIR\")\n"),
    "environment-import": (environment, "graph.py", "import os\n",
                           "import os\nfrom os import getenv\n"),
    "epoch-loop": (epoch_loop, "trainer.py", "from .ioutil import atomic_write_bytes\n",
                   "from .ioutil import atomic_write_bytes\n"
                   "def again(*args): return train_epoch(*args)\n"),
    "interval-check-number": (
        interval_per_key, "data.py",
        "    split_ratio = check_declared(RunConfig, \"split_ratio\", split_ratio, error=DataError)\n",
        "    split_ratio = check_declared(RunConfig, \"split_ratio\", split_ratio, error=DataError)\n"
        "    check_number(\"split_ratio\", split_ratio, \"(0, 1]\", error=DataError)\n"),
    "interval-config-field": (interval_per_key, "trainer.py", "from .config import TrainConfig\n",
                              "from .config import TrainConfig, config_field\n"
                              "EXTRA = config_field(0)\n"),
    "interval-config-import": (interval_per_key, "config.py",
                               "from .errors import ConfigError, DataError, check_number\n",
                               "from .errors import ConfigError, DataError, check_number\n"
                               "from .ioutil import atomic_write_text\n"),
    "literal-defaults": (literal_defaults, "data.py",
                         "split_ratio: float = RunConfig.split_ratio,",
                         "split_ratio: float = 0.8,"),
    "op-set": (op_set, "autodiff.py", "        mat.T @ g if dense.requires_grad else None))\n",
               "        mat.T @ g if dense.requires_grad else None))\n\n\n"
               "def square(t: Tensor) -> Tensor: return t * t\n"),
}


def planted(file, old, new):
    """The sources with `old` replaced by `new` in `file`, and the last line
    the replacement reaches."""
    text = SOURCES[file]
    assert text.count(old) == 1, f"{old!r} must occur once in {file}"
    first = text.count("\n", 0, text.index(old)) + 1
    return {**SOURCES, file: text.replace(old, new)}, first + new.rstrip("\n").count("\n")


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_tree_obeys(rule):
    assert rule(SOURCES) == []


@pytest.mark.parametrize("plant", list(PLANTS))
def test_rule_catches_plant(plant):
    rule, file, old, new = PLANTS[plant]
    sources, line = planted(file, old, new)
    faults = rule(sources)
    assert any(re.search(rf"\b{re.escape(file)}:{line}\b", fault) for fault in faults), faults


def test_every_rule_has_a_plant():
    assert {plant[0] for plant in PLANTS.values()} == set(RULES)


def test_readme_library_example():
    # the README's "Library use" block, run as written
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library use)", "exec"), {})
