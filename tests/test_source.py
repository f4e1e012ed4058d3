"""The package ships what it runs: every top-level function, class and method
in ``src/condtest`` is referenced by other live code in the package."""

import ast
from collections import Counter
from pathlib import Path

import condtest

SRC = Path(condtest.__file__).parent

# Names that no code in the package runs, each kept for the reason given.
UNCALLED_API = {
    # The paper's acceptance criteria are stated over these.
    "kl_divergence": "acceptance criteria",
    "slicewise_divergence": "acceptance criteria",
    "clamp_distribution": "acceptance criteria",
    "xor_transform": "acceptance criteria",
    "uniformity_lb_instance": "acceptance criteria",
    "draw": "acceptance criteria: ProductSampler, uniformity_lb_instance's sampler above n = 20",
    # The conditional-sampling query model.  The walk bills these queries
    # in bulk and draws through their unbilled forms, so nothing calls them.
    "subcube_query_via_unconditional": "query model",
    "from_pattern": "query model: SubcubeQuery stated as a pattern",
    "contains": "query model: SubcubeQuery membership",
    "subcube_sample": "query model",
    "prefix_sample": "query model",
    "marginal_prefix_sample": "query model",
    "interval_sample": "query model",
    # The JSON format that the harness reads (through from_dict).
    "to_json": "file format: writes it",
    "from_json": "file format: reads it from a string",
    "index_of": "tuple domains: the inverse of element_of",
    # The tuple-domain testers, which the CLI does not offer.
    "equivalence_test_general": "public tester",
    "product_test_general": "public tester",
    # benchmarks/worker.py imports it to check its query totals.
    "expected_equivalence_queries": "benchmark",
}


def _definitions(tree):
    """The module's top-level functions and classes and its classes' methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def _references(node, skip) -> Counter:
    """How often each name or attribute is read under ``node``, outside the
    subtrees in ``skip``."""
    found, stack = Counter(), [node]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            found[node.id if isinstance(node, ast.Name) else node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_definition_in_src_is_referenced_in_src():
    """A definition is dead when nothing outside it reads its name but
    ``__init__``'s re-exports and other dead definitions."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    candidates = {definition: f"{name}: {definition.name}"
                  for name, tree in modules.items() for definition in _definitions(tree)
                  # Python itself calls the dunders.
                  if not definition.name.startswith("__") and definition.name not in UNCALLED_API}
    dead: set = set()
    while True:
        counts = sum((_references(tree, dead) for name, tree in modules.items()
                      if name != "__init__.py"), Counter())
        newly = {definition for definition in candidates.keys() - dead
                 if counts[definition.name] == _references(definition, dead)[definition.name]}
        if not newly:
            break
        dead |= newly
    assert sorted(candidates[definition] for definition in dead) == []
