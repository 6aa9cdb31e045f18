"""Framework behaviour: pragmas, module naming, scoping, the registry."""

import pytest

from repro.analysis import (
    AnalysisError,
    Finding,
    ModuleInfo,
    all_rules,
    iter_python_files,
    run_analysis,
)
from repro.analysis.framework import (
    ImportGraph,
    Rule,
    register_rule,
    resolve_rules,
)

MUTABLE_DEFAULT = "def f(acc=[]):\n    pass\n"


class TestFindingRendering:
    def test_render_is_file_line_col_id_name_message(self):
        finding = Finding(
            path="src/repro/core/raqo.py",
            line=12,
            col=5,
            rule_id="RAQO001",
            rule_name="unseeded-random",
            message="boom",
        )
        assert finding.render() == (
            "src/repro/core/raqo.py:12:5: RAQO001 [unseeded-random] boom"
        )

    def test_findings_sort_by_location(self, tmp_path):
        source = "def f(acc=[]):\n    pass\n\n\ndef g(acc=[]):\n    pass\n"
        path = tmp_path / "two.py"
        path.write_text(source)
        findings = run_analysis([path], rules=resolve_rules(["RAQO006"]))
        assert [f.line for f in findings] == [1, 5]


class TestModuleNaming:
    def test_package_file_gets_dotted_name(self, repo_root):
        info = ModuleInfo.parse(repo_root / "src" / "repro" / "core" / "raqo.py")
        assert info.module == "repro.core.raqo"

    def test_package_init_names_the_package(self, repo_root):
        init = repo_root / "src" / "repro" / "core" / "__init__.py"
        assert ModuleInfo.parse(init).module == "repro.core"

    def test_standalone_file_has_no_module(self, tmp_path):
        path = tmp_path / "loose.py"
        path.write_text("x = 1\n")
        assert ModuleInfo.parse(path).module is None

    def test_unparsable_source_raises(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        with pytest.raises(AnalysisError, match="cannot parse"):
            ModuleInfo.parse(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot read"):
            ModuleInfo.parse(tmp_path / "absent.py")


class TestSuppressions:
    def test_same_line_pragma_by_id(self, lint):
        findings = lint(
            "def f(acc=[]):  # lint: disable=RAQO006\n    pass\n",
            rule="RAQO006",
        )
        assert findings == []

    def test_same_line_pragma_by_name_slug(self, lint):
        findings = lint(
            "def f(acc=[]):  # lint: disable=mutable-default-arg\n"
            "    pass\n",
            rule="RAQO006",
        )
        assert findings == []

    def test_standalone_pragma_suppresses_next_line(self, lint):
        findings = lint(
            "# lint: disable=RAQO006\ndef f(acc=[]):\n    pass\n",
            rule="RAQO006",
        )
        assert findings == []

    def test_disable_all_suppresses_every_rule(self, lint):
        findings = lint(
            "def f(acc=[]):  # lint: disable=all\n    pass\n",
        )
        assert findings == []

    def test_pragma_for_other_rule_does_not_suppress(self, lint):
        findings = lint(
            "def f(acc=[]):  # lint: disable=RAQO001\n    pass\n",
            rule="RAQO006",
        )
        assert [f.rule_id for f in findings] == ["RAQO006"]

    def test_file_pragma_in_header_suppresses_whole_file(self, lint):
        findings = lint(
            "# lint: disable-file=RAQO006\n\n" + MUTABLE_DEFAULT,
            rule="RAQO006",
        )
        assert findings == []

    def test_file_pragma_outside_header_window_is_ignored(self, lint):
        filler = "# filler\n" * 11
        findings = lint(
            filler + "# lint: disable-file=RAQO006\n" + MUTABLE_DEFAULT,
            rule="RAQO006",
        )
        assert [f.rule_id for f in findings] == ["RAQO006"]

    def test_no_suppress_mode_reveals_pragmad_findings(self, lint):
        source = "def f(acc=[]):  # lint: disable=RAQO006\n    pass\n"
        assert lint(source, rule="RAQO006") == []
        revealed = lint(source, rule="RAQO006", suppress=False)
        assert [f.rule_id for f in revealed] == ["RAQO006"]

    def test_guard_pragma_is_recorded_per_line(self):
        info = ModuleInfo.parse(
            "fixture.py",
            source="CACHE = {}  # lint: guarded-by=CACHE_LOCK\n",
        )
        assert info.guard_on_line(1) == "CACHE_LOCK"
        assert info.guard_on_line(2) is None


def _write_package(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


class TestImportGraphAndScoping:
    @pytest.fixture
    def package(self, tmp_path):
        return _write_package(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/workloads/__init__.py": "",
                "repro/workloads/runner.py": (
                    "from repro import reachable\n"
                ),
                "repro/reachable.py": "from . import leaf\nSHARED = {}\n",
                "repro/leaf.py": "SHARED = {}\n",
                "repro/isolated.py": "SHARED = {}\n",
            },
        )

    def test_reachability_follows_imports_transitively(self, package):
        modules = [
            ModuleInfo.parse(path)
            for path in iter_python_files([package])
        ]
        graph = ImportGraph(modules)
        reachable = graph.reachable_from(["repro.workloads.runner"])
        assert "repro.reachable" in reachable
        assert "repro.leaf" in reachable
        assert "repro.isolated" not in reachable

    def test_scoped_rule_skips_unreachable_modules(self, package):
        findings = run_analysis(
            [package], rules=resolve_rules(["RAQO005"])
        )
        flagged = {f.path.rsplit("/", 1)[-1] for f in findings}
        assert flagged == {"reachable.py", "leaf.py"}

    def test_standalone_files_fail_open_for_scoped_rules(self, lint):
        # RAQO005 is scoped to the runner, yet a bare fixture file is
        # still checked so snippets can exercise the rule.
        findings = lint("SHARED = {}\n", rule="RAQO005")
        assert [f.rule_id for f in findings] == ["RAQO005"]


class TestRegistryAndSelectors:
    def test_all_rules_cover_the_catalog_in_id_order(self):
        # RAQO009 is retired; rule ids are never reused.
        assert [rule.id for rule in all_rules()] == [
            f"RAQO{i:03d}" for i in (*range(1, 9), *range(10, 16))
        ]

    def test_resolve_by_name_slug(self):
        rules = resolve_rules(["unseeded-random", "RAQO004"])
        assert {rule.id for rule in rules} == {"RAQO001", "RAQO004"}

    def test_unknown_selector_raises(self):
        with pytest.raises(AnalysisError, match="RAQO999"):
            resolve_rules(["RAQO999"])

    def test_rule_without_id_cannot_register(self):
        class Anonymous(Rule):
            pass

        with pytest.raises(AnalysisError, match="must define id"):
            register_rule(Anonymous)

    def test_duplicate_rule_id_cannot_register(self):
        class Impostor(Rule):
            id = "RAQO001"
            name = "impostor"

        with pytest.raises(AnalysisError, match="duplicate"):
            register_rule(Impostor)


class TestFileDiscovery:
    def test_collects_nested_files_and_skips_hidden_dirs(self, tmp_path):
        _write_package(
            tmp_path,
            {
                "a.py": "",
                "sub/b.py": "",
                ".hidden/c.py": "",
                "notes.txt": "",
            },
        )
        names = [p.name for p in iter_python_files([tmp_path])]
        assert names == ["a.py", "b.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such file"):
            iter_python_files([tmp_path / "nope"])
