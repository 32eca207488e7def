"""reprolint: per-rule regressions, CLI behaviour, baseline ratchet.

Each rule is pinned by a violating/compliant fixture pair under
``tests/lint_fixtures/`` — the violating file must raise *exactly* its
rule (true positive) and the compliant file must lint clean (false
positive guard).
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (filter_findings, load_baseline, run_lint,
                        write_baseline)
from repro.lint.cli import main as lint_main
from repro.lint.registry import all_rules

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

RULES = ["R001", "R002", "R003", "R004", "R005", "R006",
         "R007", "R008", "R009"]


def lint_fixture(name, **kwargs):
    kwargs.setdefault("tests_dir", None)
    return run_lint([FIXTURES / name], **kwargs)


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", RULES)
    def test_violating_fixture_fires_only_its_rule(self, rule):
        findings = lint_fixture(f"{rule.lower()}_violating.py")
        assert findings, f"{rule} fixture raised nothing"
        assert {f.rule for f in findings} == {rule}

    @pytest.mark.parametrize("rule", RULES)
    def test_compliant_fixture_is_clean(self, rule):
        assert lint_fixture(f"{rule.lower()}_compliant.py") == []

    def test_r002_counts_all_bug_classes(self):
        """Dtype-blind constructors, fp64-scalar promotion, and fp16
        compute are separate findings (zeros, arange, float64*x,
        astype(f16)@x, += float16)."""
        findings = lint_fixture("r002_violating.py")
        assert len(findings) == 5
        half = [f for f in findings if "storage-only" in f.message]
        assert len(half) == 2

    def test_r005_counts_all_three_contracts(self):
        """None-default recorder + two clock reads + unseeded RNG."""
        findings = lint_fixture("r005_violating.py")
        assert len(findings) == 4

    def test_r005_worker_pragma_allows_clocks(self):
        """The same clocked kernel fires R005 under '# lint: kernel'
        and is clean under '# lint: worker' (forked workers must clock
        their own spans — the parent's recorder is unreachable)."""
        findings = lint_fixture("r005_worker_violating.py")
        assert {f.rule for f in findings} == {"R005"}
        assert len(findings) == 2          # both clock reads
        assert lint_fixture("r005_worker_compliant.py") == []

    def test_worker_modules_keep_other_kernel_rules(self, tmp_path):
        """'worker' is a kernel classification: R002/R003 still apply;
        only the R005 clock check is carved out."""
        mod = tmp_path / "workermod.py"
        mod.write_text(
            "# lint: worker (fixture)\n"
            "import time\n"
            "import numpy as np\n\n\n"
            "def kernel(x):\n"
            "    t0 = time.perf_counter()\n"
            "    out = np.zeros(x.size)\n"
            "    for i in range(x.size):\n"
            "        out[i] = x[i] + t0\n"
            "    return out\n")
        findings = run_lint([mod], tests_dir=None)
        assert {f.rule for f in findings} == {"R002", "R003"}

    def test_r007_counts_all_four_schema_rots(self):
        """Duplicate offset, out-of-range offset, coordinator-written-
        never-read, worker-read-never-written: one finding each."""
        findings = lint_fixture("r007_violating.py")
        assert len(findings) == 4
        assert any("reuses offset" in f.message for f in findings)
        assert any("outside the allocated table" in f.message
                   for f in findings)
        assert any("never read on any worker path" in f.message
                   for f in findings)
        assert any("consume an unset cell" in f.message for f in findings)

    def test_r008_counts_all_five_impurity_classes(self):
        """Global rebind, container mutation, RNG, clock, write-mode
        open — all in a helper defined *after* its caller, so the
        finding set also pins order-independent call resolution."""
        findings = lint_fixture("r008_violating.py")
        assert len(findings) == 5
        msgs = " | ".join(f.message for f in findings)
        assert "rebinds module-level '_COUNT'" in msgs
        assert "_CACHE" in msgs
        assert "unseeded randomness" in msgs
        assert "clock" in msgs
        assert "open(" in msgs
        assert all("worker entry" in f.message for f in findings)

    def test_r008_thread_target_is_a_worker_entry(self):
        """``Thread(target=...)`` marks its target exactly like
        ``Process(target=...)`` — the service dispatch loop runs under
        the same purity contract as forked workers."""
        findings = lint_fixture("r008_thread_violating.py")
        assert len(findings) == 2
        assert {f.rule for f in findings} == {"R008"}
        msgs = " | ".join(f.message for f in findings)
        assert "rebinds module-level '_SERVED'" in msgs
        assert "clock" in msgs

    def test_r008_thread_compliant_is_clean(self):
        """Coordinator-side bookkeeping around ``Thread(...)`` stays
        out of the worker partition; the pure loop raises nothing."""
        assert lint_fixture("r008_thread_compliant.py") == []

    def test_r009_flags_only_underived_indices(self):
        """Chunk-derived slice write passes; constant-index and
        captured-name writes are each flagged."""
        findings = lint_fixture("r009_violating.py")
        assert len(findings) == 2
        assert all("'OUT'" in f.message for f in findings)
        assert all("chunk arguments" in f.message for f in findings)

    def test_r006_counts_each_missing_declaration(self):
        """Non-dotted oracle path + missing __fallback__ + one
        undeclared public method are three separate findings."""
        findings = lint_fixture("r006_violating.py")
        assert len(findings) == 3
        assert any("__fallback__" in f.message for f in findings)
        assert any("trisolve" in f.message for f in findings)

    def test_r006_skips_unmarked_modules(self, tmp_path):
        """R006 only fires on '# lint: compiled' modules — an ordinary
        module exposing public callables with no __oracles__ is fine."""
        mod = tmp_path / "plainmod.py"
        mod.write_text("def helper(x):\n    return x\n")
        assert run_lint([mod], tests_dir=None) == []

    def test_findings_carry_location_and_fingerprint(self):
        (finding,) = lint_fixture("r004_violating.py")
        assert finding.path.endswith("r004_violating.py")
        assert finding.line > 0
        assert len(finding.fingerprint) == 16
        assert "add.at" in finding.message


class TestOracleCoverage:
    def make_project(self, tmp_path, test_body):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(textwrap.dedent("""\
            def interp_ref(x):
                return x


            def interp(x):
                return x
            """))
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "test_mod.py").write_text(test_body)
        return pkg, tdir

    def test_untested_pair_is_flagged(self, tmp_path):
        pkg, tdir = self.make_project(tmp_path, "def test_nothing():\n"
                                                "    assert True\n")
        (finding,) = run_lint([pkg], tests_dir=tdir)
        assert finding.rule == "R001"
        assert "interp_ref" in finding.message
        assert "equivalence test" in finding.message

    def test_tested_pair_is_clean(self, tmp_path):
        pkg, tdir = self.make_project(
            tmp_path,
            "from pkg.mod import interp, interp_ref\n\n\n"
            "def test_pair(x):\n    assert interp(x) == interp_ref(x)\n")
        assert run_lint([pkg], tests_dir=tdir) == []


class TestPragmas:
    def test_unknown_token_is_r000(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("# lint: lop-ok (typo)\nx = 1\n")
        findings = run_lint([f], tests_dir=None)
        assert [f.rule for f in findings] == ["R000"]
        assert "lop-ok" in findings[0].message

    def test_syntax_error_is_r000(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("def broken(:\n")
        findings = run_lint([f], tests_dir=None)
        assert [f.rule for f in findings] == ["R000"]


class TestFingerprints:
    def test_stable_under_line_moves(self, tmp_path):
        f = tmp_path / "mod.py"
        body = ("import numpy as np\n\n\n"
                "def acc(out, i, w):\n"
                "    np.add.at(out, i, w)\n")
        f.write_text(body)
        before = {x.fingerprint for x in run_lint([f], tests_dir=None)}
        f.write_text("# an unrelated comment\n\n" + body)
        after = {x.fingerprint for x in run_lint([f], tests_dir=None)}
        assert before == after != set()

    def test_repeated_idioms_stay_distinct(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("import numpy as np\n\n\n"
                     "def acc2(out, i, w):\n"
                     "    np.add.at(out, i, w)\n"
                     "    np.add.at(out, i, w)\n")
        findings = run_lint([f], tests_dir=None)
        assert len({x.fingerprint for x in findings}) == 2


class TestBaseline:
    def test_report_round_trips_through_loader(self, tmp_path):
        findings = lint_fixture("r002_violating.py")
        report = tmp_path / "report.json"
        rc = lint_main(["--format", "json", "--tests", "does-not-exist",
                        str(FIXTURES / "r002_violating.py")])
        assert rc == 1
        # Re-render the same findings as the CLI would have.
        from repro.lint.cli import render_json
        report.write_text(render_json(findings, 0))
        fps = load_baseline(report)
        assert fps == {f.fingerprint for f in findings}
        assert filter_findings(findings, fps) == []

    def test_write_then_load(self, tmp_path):
        findings = lint_fixture("r003_violating.py")
        bl = tmp_path / "baseline.json"
        write_baseline(bl, findings)
        assert load_baseline(bl) == {f.fingerprint for f in findings}

    def test_baseline_suppresses_via_cli(self, tmp_path, capsys):
        bl = tmp_path / "baseline.json"
        write_baseline(bl, lint_fixture("r004_violating.py"))
        rc = lint_main(["--tests", "does-not-exist", "--baseline", str(bl),
                        str(FIXTURES / "r004_violating.py")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "baseline-suppressed" in out

    def test_bad_baseline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"neither": []}')
        rc = lint_main(["--baseline", str(bad), str(FIXTURES)])
        assert rc == 2


class TestCli:
    def test_src_tree_is_clean(self):
        """The merged tree carries no lint debt: ``python -m repro.lint
        src/`` exits 0 with no baseline."""
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint: clean" in proc.stdout

    def test_violations_exit_one(self, capsys):
        rc = lint_main(["--tests", "does-not-exist",
                        str(FIXTURES / "r001_violating.py")])
        assert rc == 1
        assert "R001" in capsys.readouterr().out

    def test_json_format_parses(self, capsys):
        rc = lint_main(["--format", "json", "--tests", "does-not-exist",
                        str(FIXTURES / "r005_violating.py")])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 2
        assert doc["counts"] == {"R005": 4}
        assert doc["cache"]["enabled"] is False

    def test_select_restricts_rules(self, capsys):
        rc = lint_main(["--select", "R002", "--tests", "does-not-exist",
                        str(FIXTURES / "r005_violating.py")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_registry_has_nine_rules(self):
        assert [r.id for r in all_rules()] == RULES

    def test_select_unknown_rule_exits_two(self, capsys):
        rc = lint_main(["--select", "R042,R002",
                        str(FIXTURES / "r002_violating.py")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown rule id" in err
        assert "R042" in err
        assert "R002" in err          # the known list is spelled out

    def test_select_known_rules_still_run(self, capsys):
        rc = lint_main(["--select", "R004", "--tests", "does-not-exist",
                        str(FIXTURES / "r004_violating.py")])
        assert rc == 1
        assert "R004" in capsys.readouterr().out


class TestTestCollection:
    def test_unparsable_test_file_is_r000(self, tmp_path):
        from repro.lint.engine import collect_test_names
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "test_ok.py").write_text("def test_a():\n"
                                         "    assert helper() == 1\n")
        (tdir / "test_broken.py").write_text("def test_b(:\n")
        names, findings = collect_test_names(tdir)
        assert "helper" in names
        assert len(findings) == 1
        assert findings[0].rule == "R000"
        assert "does not parse" in findings[0].message
        assert findings[0].path.endswith("test_broken.py")

    def test_unreadable_test_file_is_r000(self, tmp_path):
        from repro.lint.engine import collect_test_names
        tdir = tmp_path / "tests"
        tdir.mkdir()
        bad = tdir / "test_bad.py"
        bad.write_bytes(b"\xff\xfe broken bytes \xff")
        names, findings = collect_test_names(tdir)
        assert len(findings) == 1
        assert findings[0].rule == "R000"
        assert "unreadable" in findings[0].message

    def test_collection_findings_surface_in_run(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("def f(x):\n    return x\n")
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "test_broken.py").write_text("def test_b(:\n")
        findings = run_lint([pkg], tests_dir=tdir)
        assert [f.rule for f in findings] == ["R000"]


class TestCacheAndJobs:
    def test_cache_second_run_hits(self, tmp_path):
        from repro.lint import run_lint_ex
        cdir = tmp_path / "cache"
        paths = [FIXTURES / "r002_violating.py",
                 FIXTURES / "r003_violating.py"]
        first = run_lint_ex(paths, tests_dir=None, cache_dir=cdir)
        assert first.cache_stats["enabled"] is True
        assert first.cache_stats["misses"] == 2
        assert first.cache_stats["hits"] == 0
        second = run_lint_ex(paths, tests_dir=None, cache_dir=cdir)
        assert second.cache_stats["hits"] == 2
        assert second.cache_stats["misses"] == 0
        assert [f.fingerprint for f in first.findings] \
            == [f.fingerprint for f in second.findings]

    def test_cache_invalidates_on_content_change(self, tmp_path):
        from repro.lint import run_lint_ex
        cdir = tmp_path / "cache"
        mod = tmp_path / "mod.py"
        mod.write_text("import numpy as np\n\n\n"
                       "def acc(out, i, w):\n"
                       "    np.add.at(out, i, w)\n")
        run_lint_ex([mod], tests_dir=None, cache_dir=cdir)
        mod.write_text("def acc(out, i, w):\n    return out\n")
        res = run_lint_ex([mod], tests_dir=None, cache_dir=cdir)
        assert res.cache_stats["misses"] == 1
        assert res.findings == []

    def test_project_rules_fire_from_cached_facts(self, tmp_path):
        """R007/R008 run in finalize over *cached* facts: a fully
        cache-hit second run must reproduce interprocedural findings."""
        from repro.lint import run_lint_ex
        cdir = tmp_path / "cache"
        path = [FIXTURES / "r008_violating.py"]
        first = run_lint_ex(path, tests_dir=None, cache_dir=cdir)
        second = run_lint_ex(path, tests_dir=None, cache_dir=cdir)
        assert second.cache_stats["hits"] == 1
        assert {f.rule for f in second.findings} == {"R008"}
        assert [f.fingerprint for f in first.findings] \
            == [f.fingerprint for f in second.findings]

    def test_cache_keyed_by_select(self, tmp_path):
        """A cached R002-only analysis must not satisfy a full run."""
        from repro.lint import run_lint_ex
        cdir = tmp_path / "cache"
        path = [FIXTURES / "r005_violating.py"]
        run_lint_ex(path, tests_dir=None, cache_dir=cdir,
                    select={"R002"})
        full = run_lint_ex(path, tests_dir=None, cache_dir=cdir)
        assert full.cache_stats["misses"] == 1
        assert {f.rule for f in full.findings} == {"R005"}

    def test_parses_run_on_calling_thread(self, monkeypatch):
        """Every per-file parse runs on the caller's thread.  CPython
        keeps the AST-conversion recursion depth in per-interpreter
        state, so concurrent ``ast.parse`` calls can fail with
        "AST constructor recursion depth mismatch"."""
        import ast
        import threading

        from repro.lint import run_lint_ex
        real_parse = ast.parse
        parsed_on = []

        def recording_parse(*args, **kwargs):
            parsed_on.append(threading.get_ident())
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", recording_parse)
        paths = sorted(FIXTURES.glob("r0*_violating.py"))
        assert len(paths) > 1
        run_lint_ex(paths, tests_dir=None)
        assert len(parsed_on) >= len(paths)
        assert set(parsed_on) == {threading.get_ident()}

    def test_json_reports_cache_stats(self, tmp_path, capsys):
        rc = lint_main(["--format", "json", "--tests", "does-not-exist",
                        "--cache", str(tmp_path / "c"),
                        str(FIXTURES / "r003_violating.py")])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["cache"]["enabled"] is True
        assert doc["cache"]["misses"] == 1
        assert "analysis_version" in doc["cache"]
