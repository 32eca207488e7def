"""The lint engine: file discovery, the two-tier rule drive, caching.

Besides the registered rules, the engine itself emits ``R000``
(pragma/parse errors): a module that does not parse or a pragma with an
unknown token cannot be trusted to suppress anything, so both are
findings rather than silent no-ops — a typo'd ``# lint: lop-ok`` fails
the build instead of quietly not suppressing.  The same applies to the
test tree R001 cross-references: an unreadable or unparsable test file
is an R000 finding, not a silent hole in the "exercised by tests"
check.

The run is two tiers:

1. **Per-file tier** (cacheable): parse, extract
   :class:`~repro.lint.facts.ModuleFacts`, emit R000 + every
   module-scope rule's findings.  The (facts, findings) pair is cached
   by content hash when a cache directory is given.
2. **Project tier**: project-scope rules (oracle pairing, the
   shm-header and worker-purity interprocedural rules) run their
   ``finalize`` over the full facts list — including cache-restored
   facts, so a warm cache never re-parses a file.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.cache import AnalysisCache
from repro.lint.facts import ModuleFacts, extract_facts
from repro.lint.model import Finding, ModuleInfo, parse_module
from repro.lint.registry import ProjectInfo, all_rules

__all__ = ["discover_files", "collect_test_names", "run_lint",
           "run_lint_ex", "LintResult"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
              "node_modules", ".reprolint_cache"}


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen: dict[Path, None] = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for root, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in _SKIP_DIRS
                                     and not d.startswith("."))
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        seen.setdefault(Path(root) / fn)
        elif p.suffix == ".py":
            seen.setdefault(p)
    return list(seen)


def _rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _bare_finding(rule: str, rel: str, message: str) -> Finding:
    """A finding for a file we could not even read/parse (no line text
    to fingerprint — matches ModuleInfo.finding with an empty line)."""
    digest = hashlib.sha1(f"{rule}|{rel}||0".encode()).hexdigest()[:16]
    return Finding(rule=rule, path=rel, line=1, col=0,
                   message=message, fingerprint=digest)


def collect_test_names(tests_dir: Path) -> tuple[set[str], list[Finding]]:
    """Every identifier appearing in the test tree (names, attributes,
    and imported symbols) — the cross-reference set for R001 — plus an
    R000 finding per test file that could not be read or parsed (a
    broken test file silently shrinks the cross-reference set, which
    would let untested oracle pairs slide)."""
    import ast

    names: set[str] = set()
    findings: list[Finding] = []
    for path in discover_files([tests_dir]):
        rel = _rel(path)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(_bare_finding(
                "R000", rel, f"unreadable test file: {exc}"))
            continue
        except SyntaxError as exc:
            findings.append(_bare_finding(
                "R000", rel, f"test file does not parse: {exc.msg} "
                             f"(line {exc.lineno})"))
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[-1])
    return names, findings


def _pragma_findings(module: ModuleInfo) -> Iterable[Finding]:
    counts: dict = {}
    if module.syntax_error is not None:
        yield module.finding("R000", 1, 0,
                             f"module does not parse: {module.syntax_error}",
                             counts)
    for line, msg in module.bad_pragmas:
        yield module.finding("R000", line, 0, msg, counts)


@dataclass
class _FileOutcome:
    facts: ModuleFacts
    findings: list[Finding]
    module: ModuleInfo | None       # None when restored from cache
    cached: bool


@dataclass
class LintResult:
    """Findings plus run metadata (cache stats for ``--format json``)."""

    findings: list[Finding]
    cache_stats: dict = field(default_factory=dict)


def _analyse_one(path: Path, rel: str, source: str | None,
                 wanted: set[str] | None) -> _FileOutcome:
    """The per-file tier: parse, facts, R000 + module-scope rules."""
    module = parse_module(path, rel, source=source)
    facts = extract_facts(module)
    findings = list(_pragma_findings(module))
    for rule_obj in all_rules():
        if rule_obj.scope != "module":
            continue
        if wanted is not None and rule_obj.id not in wanted:
            continue
        findings.extend(rule_obj.check_module(module))
    return _FileOutcome(facts=facts, findings=findings,
                        module=module, cached=False)


def run_lint_ex(paths: Sequence[str | Path],
                tests_dir: str | Path | None = "tests",
                select: Iterable[str] | None = None,
                cache_dir: str | Path | None = None) -> LintResult:
    """Lint ``paths`` and return findings + run metadata.

    ``tests_dir`` feeds R001's "exercised by tests" cross-reference;
    pass None (or a missing directory) to relax that requirement.
    ``select`` restricts to the given rule ids (R000 always runs).
    ``cache_dir`` enables the content-hash analysis cache there.
    Files are parsed serially on the calling thread: CPython keeps the
    AST-conversion recursion depth in per-interpreter state, so
    concurrent ``ast.parse`` calls are not safe.
    """
    wanted = set(select) if select is not None else None
    select_tag = "all" if wanted is None else ",".join(sorted(wanted))
    cache = AnalysisCache(cache_dir, select_tag=select_tag)

    files = [(p, _rel(p)) for p in discover_files(paths)]

    # Read every file once up front: the text is both the cache key and
    # the parse input.
    sources: list[str | None] = []
    for path, _rel_p in files:
        try:
            sources.append(path.read_text(encoding="utf-8"))
        except OSError:
            sources.append(None)    # parse_module re-raises this as R000

    outcomes: list[_FileOutcome | None] = [None] * len(files)
    fresh: list[int] = []
    for i, ((path, rel), source) in enumerate(zip(files, sources)):
        hit = cache.get(rel, source) if source is not None else None
        if hit is not None:
            facts, findings = hit
            outcomes[i] = _FileOutcome(facts=facts, findings=findings,
                                       module=None, cached=True)
        else:
            fresh.append(i)

    for i in fresh:
        outcomes[i] = _analyse_one(files[i][0], files[i][1], sources[i],
                                   wanted)
        if sources[i] is not None:
            cache.put(files[i][1], sources[i], outcomes[i].facts,
                      outcomes[i].findings)
    cache.save()

    findings: list[Finding] = []
    for out in outcomes:
        findings.extend(out.findings)

    tests_seen = False
    test_names: set[str] = set()
    if tests_dir is not None:
        tdir = Path(tests_dir)
        if tdir.is_dir():
            tests_seen = True
            test_names, test_findings = collect_test_names(tdir)
            findings.extend(test_findings)

    project = ProjectInfo(
        [out.module for out in outcomes if out.module is not None],
        test_names=test_names, tests_seen=tests_seen,
        facts=[out.facts for out in outcomes])
    for rule_obj in all_rules():
        if wanted is not None and rule_obj.id not in wanted:
            continue
        findings.extend(rule_obj.finalize(project))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(findings=findings, cache_stats=cache.stats())


def run_lint(paths: Sequence[str | Path],
             tests_dir: str | Path | None = "tests",
             select: Iterable[str] | None = None,
             cache_dir: str | Path | None = None) -> list[Finding]:
    """Back-compat wrapper over :func:`run_lint_ex` (findings only)."""
    return run_lint_ex(paths, tests_dir=tests_dir, select=select,
                       cache_dir=cache_dir).findings
