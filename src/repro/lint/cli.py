"""The reprolint CLI: ``python -m repro.lint [options] paths...``.

Exit codes: 0 clean (no unsuppressed findings), 1 findings, 2 usage or
I/O error — so a CI job is just the bare invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.baseline import (filter_findings, load_baseline,
                                 write_baseline)
from repro.lint.engine import run_lint_ex
from repro.lint.model import Finding
from repro.lint.registry import all_rules, known_rule_ids

__all__ = ["main", "render_text", "render_json"]


def render_text(findings: list[Finding], suppressed: int) -> str:
    lines = [f.render() for f in findings]
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    if findings:
        counts = ", ".join(f"{r}: {n}" for r, n in sorted(by_rule.items()))
        lines.append(f"reprolint: {len(findings)} finding"
                     f"{'s' if len(findings) != 1 else ''} ({counts})")
    else:
        lines.append("reprolint: clean")
    if suppressed:
        lines.append(f"reprolint: {suppressed} baseline-suppressed "
                     f"finding{'s' if suppressed != 1 else ''} remaining "
                     f"(ratchet to zero)")
    return "\n".join(lines)


def render_json(findings: list[Finding], suppressed: int,
                cache_stats: dict | None = None) -> str:
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    doc = {
        "schema_version": 2,
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(by_rule.items())),
        "baseline_suppressed": suppressed,
        "cache": cache_stats if cache_stats is not None
        else {"enabled": False, "hits": 0, "misses": 0},
    }
    return json.dumps(doc, indent=2)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="reprolint: AST checks for this repo's kernel "
                    "contracts (oracle pairing, dtype discipline, "
                    "hot-loop/scatter bans, telemetry no-op defaults, "
                    "parallel-safety: shm header schema, worker purity, "
                    "chunk-disjoint writes).")
    ap.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default: text)")
    ap.add_argument("--baseline", metavar="FILE",
                    help="suppress findings whose fingerprints FILE lists "
                         "(a baseline or a previous --format json report)")
    ap.add_argument("--write-baseline", metavar="FILE",
                    help="write the current findings as a baseline and "
                         "exit 0 (the ratchet starting point)")
    ap.add_argument("--tests", metavar="DIR", default="tests",
                    help="test tree for R001's cross-reference "
                         "(default: tests; missing dir relaxes the check)")
    ap.add_argument("--select", metavar="IDS",
                    help="comma-separated rule ids to run (e.g. R002,R004); "
                         "unknown ids are a usage error (exit 2)")
    ap.add_argument("--cache", metavar="DIR", nargs="?",
                    const=".reprolint_cache", default=None,
                    help="content-hash analysis cache directory (bare "
                         "--cache uses .reprolint_cache); off by default")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule registry and exit")
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for r in all_rules():
            print(f"{r.id} {r.name}: {r.summary}")
        return 0

    select = None
    if args.select:
        select = {s.strip() for s in args.select.split(",") if s.strip()}
        known = set(known_rule_ids())
        unknown = sorted(select - known)
        if unknown:
            print(f"reprolint: unknown rule id"
                  f"{'s' if len(unknown) != 1 else ''} in --select: "
                  f"{', '.join(unknown)} (known: "
                  f"{', '.join(sorted(known))})", file=sys.stderr)
            return 2

    result = run_lint_ex(args.paths, tests_dir=args.tests, select=select,
                         cache_dir=args.cache)
    findings = result.findings

    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(f"reprolint: wrote {len(findings)} fingerprint"
              f"{'s' if len(findings) != 1 else ''} to "
              f"{args.write_baseline}")
        return 0

    suppressed = 0
    if args.baseline:
        try:
            fps = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"reprolint: bad baseline: {exc}", file=sys.stderr)
            return 2
        kept = filter_findings(findings, fps)
        suppressed = len(findings) - len(kept)
        findings = kept

    if args.format == "json":
        print(render_json(findings, suppressed, result.cache_stats))
    else:
        print(render_text(findings, suppressed))
    return 1 if findings else 0
