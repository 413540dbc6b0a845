"""The two index routes share no code, and verify's oracle reads graphs only.

``mladder indices`` and ``verify`` mean something only while the edge-sum
route and the operator route compute their values independently: a route
that read the other's tally, or a helper both called, would make their
agreement a sum compared with itself.  These tests read the package's
source with ``ast`` and follow, from each route's entry points, every
package function it can reach, nested functions included.  A name resolves
to the function, class or module it is bound to in its module, and an
attribute to every package method of that name, so the walk may reach more
than a run would, never less.  Annotations are skipped: they run nothing.
"""

import ast
from pathlib import Path

import mladder

PACKAGE = Path(mladder.__file__).resolve().parent

# The edge-sum side: its sum, and the line graph it sums over for --line.
EDGE_ROUTE = ("indices.indices_from_edges", "graph.Graph.line_graph")
# The operator side: its evaluation, and the M-polynomials it evaluates.
OPERATOR_ROUTE = ("indices.indices_from_mpoly", "graph.Graph.m_polynomial",
                  "graph.Graph.line_m_polynomial")
# What both sides may reach: the alpha check, which computes no index value,
# and the result type.
SHARED = {"indices.check_alpha_digits", "indices.normalize_alpha", "indices.IndexSet"}


def _load():
    """Each package function, class and module by qualified name, each
    module's top-level bindings, and the package methods by name."""
    defs, bindings, methods = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        names = bindings[module] = {}
        defs[module] = ast.parse(path.read_text(encoding="utf-8"))
        for node in defs[module].body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    prefix = f"{node.module}." if node.module else ""
                    names[alias.asname or alias.name] = prefix + alias.name
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = f"{module}.{node.name}"
                defs[names[node.name]] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            qualified = f"{module}.{node.name}.{item.name}"
                            defs[qualified] = item
                            methods.setdefault(item.name, set()).add(qualified)
    return defs, bindings, methods


DEFS, BINDINGS, METHODS = _load()


def _references(node):
    """The names and attributes ``node`` uses, outside annotations."""
    if isinstance(node, ast.arg):
        return
    for field, child in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for item in child if isinstance(child, list) else [child]:
            if isinstance(item, ast.AST):
                if isinstance(item, (ast.Name, ast.Attribute)):
                    yield item
                yield from _references(item)


def _resolve(ref, module):
    """The package definitions ``ref``, used in ``module``, can stand for."""
    if isinstance(ref, ast.Name):
        target = BINDINGS[module].get(ref.id)
        return {target} if target else set()
    if isinstance(ref.value, ast.Name) and BINDINGS[module].get(ref.value.id) in DEFS:
        owner = BINDINGS[module][ref.value.id]
        if owner.count(".") == 0:  # an attribute of a package module
            found = BINDINGS[owner].get(ref.attr)
            return {found} if found else set()
    return set(METHODS.get(ref.attr, ()))


def reach(*starts):
    """Every package definition reachable from ``starts``, and every
    identifier the reached functions use."""
    seen, identifiers, todo = set(), set(), list(starts)
    while todo:
        name = todo.pop()
        if name in seen or name not in DEFS:
            continue
        seen.add(name)
        node = DEFS[name]
        if isinstance(node, ast.Module):
            continue  # a module reached by name, not run
        if isinstance(node, ast.ClassDef):
            todo.append(f"{name}.__init__")
            continue
        for ref in _references(node):
            identifiers.add(ref.id if isinstance(ref, ast.Name) else ref.attr)
            todo.extend(_resolve(ref, name.split(".")[0]))
    return seen, identifiers


def _short(names):
    return {name.rsplit(".", 1)[-1] for name in names}


def test_the_edge_route_reaches_no_polynomial():
    reached, identifiers = reach("indices.indices_from_edges")
    forbidden = {"MPoly", "weight_by", "eval_at_one", "m_polynomial", "line_m_polynomial",
                 "indices_from_mpoly"}
    assert not forbidden & (_short(reached) | identifiers), sorted(reached)
    assert "graph.Graph.degrees" in reached  # the walk does follow attributes


def test_the_operator_route_reaches_no_edge():
    reached, identifiers = reach("indices.indices_from_mpoly")
    forbidden = {"edges", "_edges", "degrees", "_degrees", "Graph"}
    assert not forbidden & (_short(reached) | identifiers), sorted(reached)
    assert "mpoly.MPoly.weight_by" in reached


def test_the_two_routes_share_only_the_alpha_check_and_the_result_type():
    edge, _ = reach(*EDGE_ROUTE)
    operator, _ = reach(*OPERATOR_ROUTE)
    assert edge & operator <= SHARED, sorted(edge & operator - SHARED)


def test_verify_takes_its_oracle_from_graph_methods_only():
    # In ``_rows`` the oracle column is what is bound to ``oracle`` for a
    # theorem, and the receiver of ``paired`` for a proposition; the paper's
    # column is the other.  Neither oracle expression may reach closed_forms.
    rows = DEFS["verify._rows"]
    oracles = []
    for node in ast.walk(rows):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            oracles += [value for target, value in zip(node.targets[0].elts, node.value.elts)
                        if isinstance(target, ast.Name) and target.id == "oracle"]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "paired":
            oracles.append(node.func.value)
    assert len(oracles) == 2
    for expr in oracles:
        refs = list(_references(ast.Expression(expr)))
        names = {ref.id for ref in refs if isinstance(ref, ast.Name)}
        assert names <= {"g", "alphas", "indices_from_edges"}, ast.unparse(expr)
        starts = set().union(*(_resolve(ref, "verify") for ref in refs))
        reached, _ = reach(*starts)
        assert reached and not {name for name in reached if name.startswith("closed_forms")}, \
            ast.unparse(expr)
