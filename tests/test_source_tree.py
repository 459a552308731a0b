"""Checks on the package source itself, read with `ast`."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moniground"


def source_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def public_definitions(tree: ast.Module):
    """(qualified name, is a method) for each public module-level function
    or class and each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", True


def test_every_public_name_has_a_caller_in_src():
    """A public name that only the tests use is dead code: delete it, or
    make it private next to the code that needs it.

    References are counted by name: a method by attribute access
    (`x.name`), a module-level function or class also by a bare name or an
    import. A definition is not a reference to itself.
    """
    trees = source_trees()
    attributes, names = Counter(), Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes[node.attr] += 1
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names[node.id] += 1
            elif isinstance(node, ast.alias):
                names[node.name] += 1
    unused = [
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, is_method in public_definitions(tree)
        if attributes[qualified.rsplit(".", 1)[-1]] + (0 if is_method else names[qualified]) == 0
    ]
    assert len(trees) > 1 and not unused, f"public names with no caller in src: {unused}"


def test_every_attribute_set_on_self_is_read_in_src():
    """An attribute that a method sets with `self.<name> = ...` and nothing
    in src reads (`x.<name>` in a load) is dead state: delete it.

    Reads are counted by attribute name, not by the object they are read
    from, as in the test above.
    """
    trees = source_trees()
    reads = Counter()
    assigned = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr] += 1
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                assigned += [
                    (f"{module}:{cls.name}.{node.attr}", node.attr)
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                ]
    unread = sorted({qualified for qualified, attr in assigned if reads[attr] == 0})
    assert assigned and not unread, f"attributes set on self that nothing in src reads: {unread}"


def test_evalbench_imports_no_model_module():
    """Scoring knows predictors only by their call: the model's inference
    loop lives in `grounder.model_predictor`, so `evalbench` imports neither
    `grounder` nor `pointenc`, not even inside a function."""
    imported = set()
    for node in ast.walk(source_trees()["evalbench.py"]):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert imported and not imported & {"grounder", "pointenc"}, sorted(imported)


def test_sources_parse_at_the_oldest_supported_python():
    """Every .py file under src/, tests/ and bench/ parses with the grammar
    of the oldest Python that pyproject.toml's `requires-python` admits, so
    a newer interpreter's syntax cannot slip in unnoticed. The floor is read
    with a regex, since `tomllib` is 3.11+."""
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    assert match, "pyproject.toml names no requires-python floor"
    floor = (int(match[1]), int(match[2]))
    paths = [path for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_cli_names_no_loss_term_and_no_vocabulary():
    """The loss terms and the vocabulary belong to the model: `cli` reads the
    term names from `grounder.LOSS_TERMS` and never handles a vocabulary, so
    a new loss term or a change to the checkpoint bundle touches `grounder`
    alone. No string constant in cli.py equals a term's name, and no name,
    attribute, argument or string constant there mentions a vocabulary."""
    from moniground.grounder import LOSS_TERMS

    literals, names = set(), set()
    for node in ast.walk(source_trees()["cli.py"]):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            literals.add(node.value)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    assert LOSS_TERMS and not literals & set(LOSS_TERMS), sorted(literals & set(LOSS_TERMS))
    vocabulary = sorted(n for n in names | literals if "vocab" in n.lower())
    assert names and not vocabulary, vocabulary


def test_only_tensor_names_float32():
    """`tensor.DTYPE` is the one definition of the dtype the model computes
    in, so no other module in src names float32: not as a name, an
    attribute or a string constant. A module that reads or writes a file
    format of 4-byte floats spells that layout as a byte-order string, such
    as `synthdata`'s "<f4" for point files."""
    trees = source_trees()
    assert "tensor.py" in trees
    naming = sorted(
        module
        for module, tree in trees.items()
        if module != "tensor.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "float32")
        or (isinstance(node, ast.Attribute) and node.attr == "float32")
        or (isinstance(node, ast.Constant) and node.value == "float32")
    )
    assert not naming, f"modules other than tensor.py that name float32: {sorted(set(naming))}"


def test_every_tensor_op_has_a_finite_difference_check():
    """Every autodiff op, a public `tensor` function that builds a node with
    `_node`, is named (as `T.<op>`) in a test of tests/test_tensor.py that
    calls `finite_diff_check`, so no op, fused ones included, goes without a
    check of its analytic gradient against central differences."""
    ops = {
        node.name
        for node in source_trees()["tensor.py"].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(isinstance(n, ast.Name) and n.id == "_node" for n in ast.walk(node))
    }
    checked = set()
    tests = ast.parse((ROOT / "tests" / "test_tensor.py").read_text(encoding="utf-8"))
    for test in ast.walk(tests):
        if not (isinstance(test, ast.FunctionDef) and test.name.startswith("test_")):
            continue
        inside = list(ast.walk(test))
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "finite_diff_check"
               for n in inside):
            checked.update(n.attr for n in inside
                           if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "T")
    assert {"linear", "pooled_mlp", "gru"} <= ops, sorted(ops)
    assert not ops - checked, f"ops with no finite-difference test: {sorted(ops - checked)}"


def test_only_pointenc_blocks_scenes():
    """How scenes are split into blocks for lockstep FPS is `pointenc`'s
    decision alone: its callers hand it every scene of a call and consume
    its outputs scene by scene. So no other module in src names the block
    helper or a block budget: not as a name, an attribute, an import or a
    string constant."""
    blocking = {"_blocks", "_BLOCK_POINTS", "_BLOCK_FEATURE_VALUES"}
    trees = source_trees()
    assert blocking <= {n.id for n in ast.walk(trees["pointenc.py"]) if isinstance(n, ast.Name)}
    naming = sorted(
        module
        for module, tree in trees.items()
        if module != "pointenc.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in blocking)
        or (isinstance(node, ast.Attribute) and node.attr in blocking)
        or (isinstance(node, ast.alias) and node.name in blocking)
        or (isinstance(node, ast.Constant) and node.value in blocking)
    )
    assert not naming, f"modules other than pointenc.py that name a block budget: {sorted(set(naming))}"


def test_only_evalbench_spells_the_report_rows():
    """The report is one JSON document whose shape `evalbench` alone knows:
    `evaluate` builds it, `check_report_invariants` validates it fresh or
    read back, and `render_report` prints it. So no other module in src has
    a row key of it as a string constant."""
    keys = {"subsets", "acc25", "acc50"}
    trees = source_trees()
    assert keys <= {n.value for n in ast.walk(trees["evalbench.py"]) if isinstance(n, ast.Constant)}
    naming = sorted(
        module
        for module, tree in trees.items()
        if module != "evalbench.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in keys
    )
    assert not naming, f"modules other than evalbench.py that spell a report row key: {sorted(set(naming))}"


def test_every_parameter_is_read():
    """A parameter that its function's body never reads is a pass-through
    that callers must fill for nothing: delete it. Every parameter of every
    function in src, nested ones, lambdas, `*args` and `**kwargs`
    included, is read (loaded by name) somewhere in its body, a nested
    function's body included. `self` and `cls` are exempt."""

    def unread(node: ast.AST, qualified: str):
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        return [f"{qualified}({p.arg})" for p in params if p.arg not in ("self", "cls") and p.arg not in loaded]

    def visit(node: ast.AST, scope: str, module: str):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{scope}{getattr(child, 'name', '<lambda>')}"
                found.extend(f"{module}:{entry}" for entry in unread(child, name))
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = f"{scope}{child.name}."
            visit(child, name, module)

    found: list[str] = []
    trees = source_trees()
    for module, tree in trees.items():
        visit(tree, "", module)
    assert len(trees) > 1 and not found, f"parameters that their function never reads: {found}"
