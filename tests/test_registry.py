"""__ray_entry__ registry invariants: every query has an oracle, every
oracle reads only the system's tables, and the registry order follows
its one stated rule."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import duckdb

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRY = os.path.join(REPO, "__ray_entry__.py")

# the extraction queries that build table docs from TPC-H lineitem rows
LINEITEM_DOC_QUERIES = {
    "table_geometry",
    "table_cells_lineitem",
    "table_cells_stream",
    "edge_census",
    "rect_mcids",
}

# query families in registry order: extraction and real-PDF decode,
# then span/media analytics over the interleaved payload, then corpus ops
EXTRACTION_CODE = (
    "pdfplumber_ray.pipelines.extract",
    "pdfplumber_ray.pipelines.repair",
    "pdfplumber_ray.pdfio",
    "pdfplumber_ray.stages.decode",
    "pdfplumber_ray.stages.flatten",
    "pdfplumber_ray.functions",
    "pdfplumber_ray.display",
)
SPAN_MEDIA_CODE = (
    "pdfplumber_ray.pipelines.media",
    "pdfplumber_ray.pipelines.main_content",
    "pdfplumber_ray.stages.multimodal",
    # interleaved-doc adapters (``documents_*`` adapters emit flat rows)
    "pdfplumber_ray.sources.synth_corpus.docs_",
)


def _load_entry():
    import __ray_entry__ as E

    return E


def _qualname(obj) -> str:
    if inspect.ismodule(obj):
        return obj.__name__
    mod = getattr(obj, "__module__", None)
    name = getattr(obj, "__name__", None)
    return f"{mod}.{name}" if mod and name else ""


def _referenced(node, E, helpers, seen) -> set:
    """Qualified names of everything a query's code references, following
    calls into ``__ray_entry__``'s own helper functions."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom):
            mod = importlib.import_module(n.module)
            out |= {_qualname(getattr(mod, a.name)) for a in n.names}
        elif isinstance(n, ast.Name) and n.id in helpers:
            if n.id not in seen:
                seen.add(n.id)
                out |= _referenced(helpers[n.id], E, helpers, seen)
        elif isinstance(n, ast.Name) and hasattr(E, n.id):
            out.add(_qualname(getattr(E, n.id)))
    return out


def _entry_registry():
    """``__ray_entry__``'s top-level functions by name, and the ``QUERIES``
    dict literal."""
    tree = ast.parse(open(ENTRY).read())
    helpers = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    (registry,) = [
        n.value
        for n in tree.body
        if isinstance(n, ast.AnnAssign) and getattr(n.target, "id", "") == "QUERIES"
    ]
    return helpers, registry


def _families(E) -> dict:
    helpers, registry = _entry_registry()
    fam = {}
    for k, v in zip(registry.keys, registry.values):
        node = helpers[v.id] if isinstance(v, ast.Name) else v
        refs = _referenced(node, E, helpers, set())
        if any(r.startswith(EXTRACTION_CODE) for r in refs):
            fam[k.value] = 0
        elif any(r.startswith(SPAN_MEDIA_CODE) for r in refs):
            fam[k.value] = 1
        else:
            fam[k.value] = 2
    return fam


def test_every_query_has_an_oracle():
    E = _load_entry()
    missing = [k for k in E.QUERIES if k not in E.ORACLES]
    assert missing == [], f"queries without oracle_sql twins: {missing}"
    orphans = [k for k in E.ORACLES if k not in E.QUERIES]
    assert orphans == [], f"oracles without queries() entries: {orphans}"


def test_oracles_read_only_system_tables():
    """Every query serves extraction or the LLM-corpus pipeline: its
    oracle reads the corpus tables, and only the table-doc extraction
    queries read TPC-H ``lineitem``."""
    E = _load_entry()
    con = duckdb.connect()
    bad = {}
    for name, sql in E.ORACLES.items():
        tree = con.execute(
            "SELECT json_serialize_sql(CAST(? AS VARCHAR))", [sql]
        ).fetchone()[0]
        # table references in the parse tree, minus the oracle's own CTEs
        tables, ctes = set(), set()
        stack = [json.loads(tree)]
        while stack:
            o = stack.pop()
            if isinstance(o, dict):
                if o.get("type") == "BASE_TABLE":
                    tables.add(o["table_name"])
                ctes.update(c["key"] for c in o.get("cte_map", {}).get("map", []))
                stack.extend(o.values())
            elif isinstance(o, list):
                stack.extend(o)
        allowed = {"documents", "embeddings"}
        if name in LINEITEM_DOC_QUERIES:
            allowed.add("lineitem")
        if tables - ctes - allowed:
            bad[name] = sorted(tables - ctes - allowed)
    assert bad == {}, f"oracles reading tables outside the system: {bad}"


def test_registry_order_follows_family_rule():
    """QUERIES lists extraction and real-PDF queries first, then
    span/media analytics, then corpus ops; each query's family is read
    from the code it calls."""
    E = _load_entry()
    fam = _families(E)
    order = [fam[k] for k in E.QUERIES]
    assert order == sorted(order), list(fam.items())
    # every family is populated, so the rule is not vacuous
    assert set(order) == {0, 1, 2}


def test_extract_import_leaves_corpus_modules_unloaded():
    """Extraction workers import only the extraction code."""
    code = (
        "import sys, pdfplumber_ray.pipelines.extract; "
        "print(sorted(m for m in sys.modules if m.startswith("
        "('pdfplumber_ray.pipelines.analytics', "
        "'pdfplumber_ray.pipelines.corpus_ops'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_entry_module_does_not_own_ray_session():
    """CLAUDE.md contract: __ray_entry__ must never call ray.init or
    ray.shutdown — the driver owns the session."""
    tree = ast.parse(open(ENTRY).read())
    calls = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("init", "shutdown")
        and isinstance(n.value, ast.Name) and n.value.id == "ray"
    ]
    assert calls == [], "ray.init/ray.shutdown found in __ray_entry__.py"


def _names(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_operator_is_reached():
    """Every top-level def, class and module constant of ``analytics``/
    ``corpus_ops``, public or private, is reached, through the references
    between top-level definitions, from a ``QUERIES`` callable or from
    the rest of the package."""
    pipelines = os.path.join(REPO, "pdfplumber_ray", "pipelines")
    sources = [os.path.join(pipelines, m) for m in ("analytics.py", "corpus_ops.py")]
    ops = {}
    for path in sources:
        for n in ast.parse(open(path).read()).body:
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                ops[n.name] = n
            elif isinstance(n, (ast.Assign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                ops.update((t.id, n) for t in targets if isinstance(t, ast.Name))
    helpers, registry = _entry_registry()
    frontier = list(registry.values)
    for dirpath, _, files in os.walk(os.path.join(REPO, "pdfplumber_ray")):
        for f in files:
            path = os.path.join(dirpath, f)
            if f.endswith(".py") and path not in sources:
                frontier.append(ast.parse(open(path).read()))
    reached = set()
    while frontier:
        for name in _names(frontier.pop()) - reached:
            for defs in (ops, helpers):
                if name in defs:
                    reached.add(name)
                    frontier.append(defs[name])
    unreached = set(ops) - reached
    assert unreached == set(), f"unreached: {sorted(unreached)}"
