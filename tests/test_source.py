"""The package ships what it runs: every top-level function, class and method
in ``src/condtest`` is referenced by other live code in the package."""

import ast
import re
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
    "bits": "query model: PrefixQuery stated by its fixed bits",
    "contains": "query model: SubcubeQuery membership",
    "subcube_sample": "query model",
    "prefix_sample": "query model",
    "marginal_prefix_sample": "query model",
    "interval_sample": "query model",
    # The tuple-domain testers, which the CLI does not offer.
    "equivalence_test_general": "public tester",
    "product_test_general": "public tester",
    # benchmarks/worker.py imports it to check its query totals.
    "expected_equivalence_queries": "benchmark",
}


def _definitions(tree):
    """The module's top-level functions and classes, as (node, False), and
    its classes' methods, as (node, True)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((item, True) for item in node.body if isinstance(item, ast.FunctionDef))


def _references(node, skip) -> Counter:
    """How often each name is read under ``node``, outside the subtrees in
    ``skip``: ("name", x) for a read of the variable x, ("attr", x) for a
    read of the attribute x.  Assignments are not reads."""
    found, stack = Counter(), [node]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found["name", node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found["attr", node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return found


def _reads(counts: Counter, definition, is_method: bool) -> int:
    """The reads in ``counts`` that may reach ``definition``: a method is
    reached through an attribute only, a module-level name either way."""
    reads = counts["attr", definition.name]
    return reads if is_method else reads + counts["name", definition.name]


def test_every_definition_in_src_is_referenced_in_src():
    """A definition is dead when nothing outside it reads its name but
    ``__init__``'s re-exports and other dead definitions."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    candidates = {definition: (f"{name}: {definition.name}", is_method)
                  for name, tree in modules.items() for definition, is_method in _definitions(tree)
                  # Python itself calls the dunders.
                  if not definition.name.startswith("__") and definition.name not in UNCALLED_API}
    dead: set = set()
    while True:
        counts = sum((_references(tree, dead) for name, tree in modules.items()
                      if name != "__init__.py"), Counter())
        newly = {definition for definition, (_, is_method) in candidates.items()
                 if definition not in dead
                 and _reads(counts, definition, is_method)
                 == _reads(_references(definition, dead), definition, is_method)}
        if not newly:
            break
        dead |= newly
    assert sorted(candidates[definition][0] for definition in dead) == []


def test_readme_names_every_uncalled_api():
    """README lists the public API that the package does not run: each name
    exempted above, in backquotes, alone or after its class."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [name for name in UNCALLED_API if not re.search(rf"[`.]{name}`", readme)] == []


def test_no_mass_is_a_cell_order_sum():
    """Every prefix mass and marginal sums its cells pairwise
    (``distcore.level_sums``); ``bincount`` and ``reduceat`` would add them
    in cell order instead."""
    found = [f"{path.name}:{number}: {line.strip()}" for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if "bincount(" in line or "reduceat(" in line]
    assert found == []


def test_oracles_keep_no_derivation_of_their_own():
    """A cell-backed view's node array and cdf are its table's, derived and
    kept in ``distcore``: in ``oracles.py`` only a literal draw takes a
    running sum (``_draw_weighted``, over its own cells), and only the
    product view, which has no cells, builds a node array."""
    source = (SRC / "oracles.py").read_text()
    owner = {number: node.name for node in ast.parse(source).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             for number in range(node.lineno, node.end_lineno + 1)}
    lines = list(enumerate(source.splitlines(), start=1))
    assert {call: {owner.get(number) for number, line in lines if call in line}
            for call in ("cumsum(", "node_conditionals(")} == {
        "cumsum(": {"_draw_weighted"}, "node_conditionals(": {"ProductMarginalOracle"}}


def _callers(tree, called: str) -> set:
    """The functions and methods of ``tree``, as "name" or "Class.name",
    that call ``called`` by name or as an attribute; None for a call outside
    any of them."""
    owner = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            scopes = [(top.name, top)]
        elif isinstance(top, ast.ClassDef):
            scopes = [(f"{top.name}.{item.name}", item) for item in top.body
                      if isinstance(item, ast.FunctionDef)]
        else:
            scopes = []
        owner.update((node, name) for name, scope in scopes for node in ast.walk(scope))
    return {owner.get(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == called}


def test_one_billed_draw():
    """Every literal query that selects cells, masked or an interval, is
    drawn and billed by ``MeteredOracle._draw_cell``: in ``oracles.py`` only
    it sums a query's cells (``_draw_weighted``), and besides it only
    ``charge`` itself and the two draws from a derived array call
    ``charge``: a marginal query's bit from the node array, and an
    unconditional draw from the table's cached cdf."""
    tree = ast.parse((SRC / "oracles.py").read_text())
    assert {called: _callers(tree, called) for called in ("_draw_weighted", "charge")} == {
        "_draw_weighted": {"MeteredOracle._draw_cell"},
        "charge": {"MeteredOracle.charge", "MeteredOracle._draw_cell",
                   "BinaryPrefixOracle.marginal_prefix_sample", "TableOracle.draw_unconditional"},
    }
