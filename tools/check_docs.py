#!/usr/bin/env python
"""Documentation lint: resolvable links + docstrings on the public API.

Run from the repository root (CI does: ``PYTHONPATH=src python
tools/check_docs.py``).  Two checks:

1. every relative markdown link in README.md and docs/*.md points at a file
   or directory that exists (external http(s) links and pure anchors are
   skipped);
2. every name on the public API surface — the entry points a user meets in
   README/docs — carries a non-trivial docstring, so ``pydoc repro.store``
   and friends render a usable reference.

Exit code 0 when clean; prints one line per violation otherwise.
"""

from __future__ import annotations

import inspect
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown files whose relative links must resolve.
DOC_FILES = ("README.md", "docs/architecture.md", "docs/benchmarks.md")

#: module path -> names that must be documented; a name may be
#: "Class.method".  Modules themselves must carry docstrings too.
PUBLIC_API = {
    "repro.store": [
        "FragmentStore",
        "FragmentStore.bulk_load",
        "FragmentStore.replace_fragment",
        "FragmentStore.apply_mutations",
        "FragmentStore.write_batch",
        "FragmentStore.snapshot",
        "FragmentStore.from_snapshot",
        "FragmentStore.sweep_epochs",
        "DiskStore.refresh_epochs",
        "DiskStore.write_batch",
        "InMemoryStore",
        "DiskStore",
        "EpochClock",
        "EpochClock.sweep",
        "EpochClock.load",
        "StoreError",
        "resolve_store",
    ],
    "repro.store.epochs": [],
    "repro.store.snapshot": ["write_snapshot", "load_snapshot"],
    "repro.core.engine": [
        "DashEngine",
        "DashEngine.build",
        "DashEngine.open",
        "DashEngine.search",
        "DashEngine.serving",
        "DashEngine.statistics",
    ],
    "repro.core.search": [
        "TopKSearcher",
        "TopKSearcher.search",
        "TopKSearcher.search_detailed",
        "SearchResult",
    ],
    "repro.core.incremental": [
        "IncrementalMaintainer",
        "IncrementalMaintainer.insert",
        "IncrementalMaintainer.delete",
        "IncrementalMaintainer.apply_updates",
        "InsertRecord",
        "DeleteRecords",
    ],
    "repro.store.mutations": [
        "ReplaceFragment",
        "RemoveFragment",
        "TouchFragment",
        "replace_op",
        "coalesce_mutations",
    ],
    "repro.serving": [],
    "repro.serving.maintenance": [
        "MaintenanceService",
        "MaintenanceService.submit",
        "MaintenanceService.flush",
        "MaintenanceService.statistics",
        "AppliedBatch",
        "ReadWriteGate",
    ],
    "repro.serving.service": [
        "SearchService",
        "SearchService.search",
        "SearchService.search_many",
        "SearchService.warm_up",
        "SearchService.sweep_epochs",
        "SearchService.statistics",
    ],
    "repro.serving.cache": ["ResultCache", "ResultCache.oldest_stamp"],
    "repro.serving.gateway": ["SearchGateway"],
}

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links() -> list:
    problems = []
    for doc in DOC_FILES:
        path = os.path.join(REPO_ROOT, doc)
        if not os.path.exists(path):
            problems.append(f"{doc}: file missing")
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for target in LINK_PATTERN.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(
                os.path.join(REPO_ROOT, os.path.dirname(doc), target.split("#")[0])
            )
            if not os.path.exists(resolved):
                problems.append(f"{doc}: broken link -> {target}")
    return problems


def _documented(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def check_docstrings() -> list:
    problems = []
    for module_path, names in PUBLIC_API.items():
        try:
            module = __import__(module_path, fromlist=["_"])
        except Exception as error:  # pragma: no cover - import failure is the finding
            problems.append(f"{module_path}: import failed ({error})")
            continue
        if not _documented(module):
            problems.append(f"{module_path}: module docstring missing")
        for name in names:
            obj = module
            try:
                for part in name.split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                problems.append(f"{module_path}.{name}: name does not exist")
                continue
            if not _documented(obj):
                problems.append(f"{module_path}.{name}: docstring missing")
    return problems


def main() -> int:
    problems = check_links() + check_docstrings()
    for problem in problems:
        print(f"docs-lint: {problem}")
    if problems:
        print(f"docs-lint: {len(problems)} problem(s)")
        return 1
    print("docs-lint: links resolve, public API is documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
