"""No library surface that only its own tests call: every public
module-level function and class of ``src/sedlab`` is referenced somewhere
in ``src/`` outside its own definition."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sedlab"

#: Names that only tests call but the benchmark's layer tracer wraps by
#: name, so they stay in ``src/`` until the tracer finds its functions
#: itself (ROADMAP item 6).
TRACER_PINNED = {
    "spectra.position_transfer",
    "dynamics.sample_from_spectrum",
    "dynamics.simulate_dipoles",
    "estimators.structure_function",
    "noise.synthesize_pair",
}


def _references(tree, skip) -> set:
    """The names and attributes that ``tree`` reads, outside the node ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if not any(node.name in _references(other, node) for other in trees.values()):
                unused.append(f"{module}.{node.name}")
    assert sorted(set(unused) - TRACER_PINNED) == []
    # an allowance whose name gained a caller, or went, is stale
    assert sorted(TRACER_PINNED - set(unused)) == []
