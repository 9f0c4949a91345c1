"""Documentation tests: doctests on the documented modules, link/TOC checks.

This file is the one list of documented modules and guides: the CI docs job
runs it on its own, and tier-1 runs it too, so a broken docstring example or
a dead link in ``docs/ARCHITECTURE.md`` fails the ordinary test run, not
just the docs job.
"""

from __future__ import annotations

import doctest
import importlib
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Modules whose docstring examples must stay runnable.
DOCTEST_MODULES = [
    "repro.core.operators.aggregate",
    "repro.core.operators.distinct",
    "repro.core.operators.join",
    "repro.core.operators.select",
    "repro.harness.report",
    "repro.sql.tokenizer",
    "repro.sql.parser",
    "repro.plan",
    "repro.window.bounds",
]

#: Modules needing NumPy (skipped, not failed, when it is unavailable).
DOCTEST_MODULES_NUMPY = [
    "repro.columnar.relation",
    "repro.columnar.plan",
    "repro.columnar.factorised",
    "repro.columnar.sort",
    "repro.columnar.window",
    "repro.columnar.incremental",
    "repro.serving.cache",
    "repro.serving.server",
    "repro.sql.compiler",
]

DOCUMENTS = [
    "docs/ARCHITECTURE.md",
    "docs/PLAN_GUIDE.md",
    "docs/SQL_GUIDE.md",
    "benchmarks/README.md",
    "examples/README.md",
]

#: Markdown files whose fenced examples are executable doctests.
DOCTEST_DOCUMENTS = ["docs/PLAN_GUIDE.md", "docs/SQL_GUIDE.md"]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0, f"{module_name} lost its doctest examples"


@pytest.mark.parametrize("module_name", DOCTEST_MODULES_NUMPY)
def test_columnar_module_doctests(module_name):
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    module = importlib.import_module(module_name)
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0, f"{module_name} lost its doctest examples"


@pytest.mark.parametrize("document", DOCTEST_DOCUMENTS)
def test_markdown_doctests(document):
    pytest.importorskip("numpy", reason="the plan guide exercises the columnar backend")
    results = doctest.testfile(
        str(REPO_ROOT / document), module_relative=False, verbose=False
    )
    assert results.failed == 0
    assert results.attempted > 0, f"{document} lost its doctest examples"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_markdown_links_and_toc(document):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        check_docs = importlib.import_module("check_docs")
    finally:
        sys.path.pop(0)
    errors = check_docs.check_document(REPO_ROOT / document)
    assert errors == [], "\n".join(errors)


def test_architecture_doc_covers_the_subsystems():
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    for needle in (
        "ColumnarPlan",
        "_dispatch",
        "groupby_aggregate",
        "searchsorted",
        "Module map",
        "bounding",
        "IncrementalView",
        "shape_key",
        "SQL frontend",
        "SqlError",
    ):
        assert needle in text, f"ARCHITECTURE.md no longer mentions {needle}"
