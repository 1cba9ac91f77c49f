"""Tests for the repro.lint static-analysis subsystem.

Covers the golden fixtures (each known-bad snippet triggers exactly its
rule), the self-clean guarantee on ``src/repro``, ``# repro: noqa``
suppressions, the JSON report schema, the CLI exit-code contract (0 clean
/ 1 findings / 2 usage), and the seeded regressions the CI lint job must
catch (a metric renamed away from the catalogue, pickled worker payloads,
a bare transport connect, an unseeded RNG).
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.lint as lint
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = REPO_ROOT / "tests" / "fixtures" / "lint"
FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))


# ---------------------------------------------------------------------------
# golden fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda path: path.stem)
def test_golden_fixture_triggers_exactly_its_rule(fixture):
    """Every known-bad snippet fires its intended rule and nothing else."""
    expected = fixture.stem.split("_", 1)[0].upper()
    report = lint.run_lint([str(fixture)], root=REPO_ROOT)
    fired = {finding.rule for finding in report.findings}
    assert fired == {expected}, (
        f"{fixture.name}: fired {sorted(fired)}, expected exactly {expected}"
    )
    assert report.files_checked == 1
    assert all(finding.severity in lint.SEVERITIES for finding in report.findings)


def test_fixture_coverage_spans_all_four_families():
    """The fixture set exercises every core rule family plus LINT001."""
    prefixes = {path.stem.split("_", 1)[0].upper()[:3] for path in FIXTURES}
    assert {"DET", "KER", "PRO", "TEL", "LIN"} <= prefixes


# ---------------------------------------------------------------------------
# self-clean + catalogue sanity
# ---------------------------------------------------------------------------


def test_src_repro_is_lint_clean():
    """The shipped tree has no active findings (suppressions are justified)."""
    report = lint.run_lint(["src/repro"], root=REPO_ROOT)
    assert report.files_checked > 50
    assert report.findings == [], "\n".join(
        str(finding) for finding in report.findings
    )
    # The only deliberate suppressions (StableLp's exact float parameter
    # dispatch) are present, not silently dropped.
    suppressed_rules = {finding.rule for finding in report.suppressed}
    assert suppressed_rules == {"KER002"}


def test_observability_catalogue_parses():
    """The metric/span catalogue the TEL rules diff against is non-trivial."""
    from repro.lint.context import ProjectContext

    project = ProjectContext(REPO_ROOT)
    assert "repro_ingest_rows_total" in project.metric_catalogue
    assert project.metric_catalogue["repro_ingest_rows_total"] == {
        "backend",
        "policy",
    }
    assert project.metric_catalogue["repro_merge_total"] == frozenset()
    assert "coordinator.ingest" in project.span_catalogue
    assert "service.query" in project.span_catalogue


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def _lint_source(tmp_path, source, name="sample.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint.run_lint([str(path)], root=tmp_path)


def test_noqa_with_rule_id_suppresses(tmp_path):
    report = _lint_source(
        tmp_path,
        "import numpy as np\n"
        "def make():\n"
        "    return np.random.default_rng()  # repro: noqa[DET001]\n",
    )
    assert report.findings == []
    assert [finding.rule for finding in report.suppressed] == ["DET001"]


def test_bare_noqa_suppresses_every_rule_on_the_line(tmp_path):
    report = _lint_source(
        tmp_path,
        "import numpy as np\n"
        "def make():\n"
        "    return np.random.default_rng()  # repro: noqa\n",
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_noqa_for_a_different_rule_does_not_suppress(tmp_path):
    report = _lint_source(
        tmp_path,
        "import numpy as np\n"
        "def make():\n"
        "    return np.random.default_rng()  # repro: noqa[KER001]\n",
    )
    assert [finding.rule for finding in report.findings] == ["DET001"]
    assert report.suppressed == []


_BAD_SOURCE = (
    "import numpy as np\n"
    "def make():\n"
    "    return np.random.default_rng()\n"
)


# ---------------------------------------------------------------------------
# report formats + engine API
# ---------------------------------------------------------------------------


def test_json_report_schema(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(_BAD_SOURCE)
    report = lint.run_lint([str(sample)], root=tmp_path)
    payload = json.loads(lint.render_findings(report, "json"))
    assert payload["schema"] == lint.LINT_REPORT_SCHEMA
    assert payload["files_checked"] == 1
    assert payload["summary"] == {"DET001": 1}
    (entry,) = payload["findings"]
    assert entry["rule"] == "DET001"
    assert entry["path"] == "sample.py"
    assert entry["line"] == 3
    restored = lint.Finding.from_dict(entry)
    assert restored == report.findings[0]


def test_pretty_rendering_mentions_counts(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(_BAD_SOURCE)
    report = lint.run_lint([str(sample)], root=tmp_path)
    text = lint.render_findings(report, "pretty")
    assert "sample.py:3" in text
    assert "DET001" in text
    assert "1 finding(s) in 1 file" in text


def test_unknown_select_is_a_usage_error(tmp_path):
    sample = tmp_path / "clean.py"
    sample.write_text("X = 1\n")
    with pytest.raises(lint.LintUsageError):
        lint.run_lint([str(sample)], root=tmp_path, select=["NOPE999"])


def test_select_restricts_rules(tmp_path):
    source = (
        "import numpy as np\n"
        "def make():\n"
        "    np.random.seed(3)\n"
        "    return np.random.default_rng()\n"
    )
    sample = tmp_path / "sample.py"
    sample.write_text(source)
    report = lint.run_lint([str(sample)], root=tmp_path, select=["DET002"])
    assert [finding.rule for finding in report.findings] == ["DET002"]


def test_missing_path_is_a_usage_error(tmp_path):
    with pytest.raises(lint.LintUsageError):
        lint.run_lint([str(tmp_path / "no-such-dir")], root=tmp_path)


@pytest.mark.parametrize(
    "files",
    [(), ("notes.md",), (".hidden/skipped.py", "__pycache__/cached.py")],
    ids=["empty", "no-python", "only-skipped-python"],
)
def test_directory_with_nothing_to_check_is_a_usage_error(tmp_path, files):
    """A directory with no .py file and no bundle manifest is never passed."""
    target = tmp_path / "target"
    target.mkdir()
    for name in files:
        (target / name).parent.mkdir(parents=True, exist_ok=True)
        (target / name).write_text("x = 1\n")
    with pytest.raises(lint.LintUsageError, match="target"):
        lint.run_lint([str(target)], root=tmp_path)


#: Every registered rule id.  Retired ids (PRO001–PRO005, PRO007, PRO008)
#: are never reused, so none may come back.
RULE_IDS = [
    "ART001", "ART002",
    "DET001", "DET002", "DET003", "DET004",
    "DOC001", "DOC002",
    "KER001", "KER002", "KER003",
    "LINT001",
    "PRO006", "PRO009",
    "TEL001", "TEL002", "TEL003",
]


def test_rule_registry_contract():
    """Every rule has a summary, rationale and valid severity; ids sort."""
    rules = lint.all_rules()
    assert [rule.rule_id for rule in rules] == RULE_IDS
    for rule in rules:
        assert rule.summary and rule.rationale
        assert rule.severity in lint.SEVERITIES
        assert rule.rule_id in rule.explain()
    assert lint.rule_ids() == sorted(lint.rule_ids())
    assert lint.get_rule("DET001").rule_id == "DET001"
    with pytest.raises(KeyError):
        lint.get_rule("NOPE999")


# ---------------------------------------------------------------------------
# CLI exit-code contract
# ---------------------------------------------------------------------------


def _run_cli(args, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli_main(["lint", *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_findings_exit_one(monkeypatch, capsys):
    fixture = FIXTURE_DIR / "det001_unseeded_rng.py"
    code, out, _ = _run_cli([str(fixture)], monkeypatch, capsys)
    assert code == 1
    assert "DET001" in out


def test_cli_json_format(monkeypatch, capsys):
    fixture = FIXTURE_DIR / "det001_unseeded_rng.py"
    code, out, _ = _run_cli(
        [str(fixture), "--format", "json"], monkeypatch, capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == lint.LINT_REPORT_SCHEMA
    assert payload["summary"] == {"DET001": 1}


def test_cli_list_rules(monkeypatch, capsys):
    code, out, _ = _run_cli(["--list-rules"], monkeypatch, capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == RULE_IDS


def test_cli_explain(monkeypatch, capsys):
    code, out, _ = _run_cli(["--explain", "PRO006"], monkeypatch, capsys)
    assert code == 0
    assert "PRO006" in out
    assert "noqa[PRO006]" in out


def test_cli_explain_unknown_rule_exits_two(monkeypatch, capsys):
    code, _, err = _run_cli(["--explain", "NOPE999"], monkeypatch, capsys)
    assert code == 2
    assert "unknown rule" in err


def test_cli_unknown_path_exits_two(monkeypatch, capsys):
    code, _, err = _run_cli(["no/such/path"], monkeypatch, capsys)
    assert code == 2
    assert "no such file" in err


def test_cli_directory_without_python_exits_two(monkeypatch, capsys):
    code, out, err = _run_cli(["docs"], monkeypatch, capsys)
    assert code == 2
    assert "under: docs" in err
    assert "finding(s)" not in out


def test_cli_unknown_select_exits_two(monkeypatch, capsys):
    code, _, err = _run_cli(
        ["src/repro", "--select", "NOPE999"], monkeypatch, capsys
    )
    assert code == 2
    assert "unknown rule" in err


@pytest.mark.parametrize(
    "option", ["--baseline=lint.json", "--write-baseline=lint.json", "--changed-only"]
)
def test_cli_refuses_retired_options(option, monkeypatch, capsys):
    """There are no baseline files and no git-diff scoping: argparse
    refuses those options with the usage exit code."""
    with pytest.raises(SystemExit) as refused:
        _run_cli(["src/repro", option], monkeypatch, capsys)
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# artifact paths: what the path is decides the check
# ---------------------------------------------------------------------------


def _saved_checkpoint(tmp_path) -> Path:
    from repro import Coordinator, Dataset, ExactBaseline, RowStream

    engine = Coordinator(
        lambda: ExactBaseline(n_columns=5), n_shards=2, backend="serial"
    )
    engine.ingest(RowStream(Dataset.random(n_rows=60, n_columns=5, seed=4)))
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)
    return path


def test_cli_valid_checkpoint_exits_zero(tmp_path, monkeypatch, capsys):
    path = _saved_checkpoint(tmp_path)
    code, out, _ = _run_cli([str(path)], monkeypatch, capsys)
    assert code == 0, out
    assert "0 finding(s) in 1 file" in out


def test_cli_corrupted_checkpoint_exits_one(tmp_path, monkeypatch, capsys):
    path = _saved_checkpoint(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    code, out, _ = _run_cli([str(path)], monkeypatch, capsys)
    assert code == 1
    assert "ART001" in out


@pytest.mark.parametrize("name", ["notes.md", "engine.ckpt", "data.json"])
def test_cli_never_reports_a_non_snapshot_file_clean(
    name, tmp_path, monkeypatch, capsys
):
    """Any file that is not ``.py`` source is checked as an artifact, so
    one that is not a snapshot fails ART001 instead of passing unchecked."""
    path = tmp_path / name
    path.write_text("not a snapshot\n")
    code, out, _ = _run_cli([str(path)], monkeypatch, capsys)
    assert code == 1
    assert "ART001" in out and "1 finding(s) in 1 file" in out


def test_bundle_directory_is_checked_as_an_artifact(tmp_path):
    """A directory holding manifest.json is a checkpoint bundle: its
    manifest and every session file are checked against ART001."""
    from repro.experiments.checkpointing import MANIFEST_NAME

    bundle = tmp_path / "bundle.ckpt"
    bundle.mkdir()
    (bundle / MANIFEST_NAME).write_text(json.dumps({"format": "nope"}))
    report = lint.run_lint([str(bundle)], root=tmp_path)
    assert report.files_checked == 1
    assert {finding.rule for finding in report.findings} == {"ART001"}
    assert all(finding.path.startswith("bundle.ckpt") for finding in report.findings)


def _trace_file(tmp_path) -> Path:
    from repro.telemetry import Tracer

    tracer = Tracer()
    with tracer.span("coordinator.ingest"):
        with tracer.span("coordinator.merge"):
            pass
    path = tmp_path / "run.trace.json"
    path.write_text(json.dumps(tracer.to_dict()))
    return path


def _result_file(tmp_path) -> Path:
    from repro.experiments import RunParams, run_experiment, write_result

    path, _ = write_result(run_experiment("figure1", RunParams(quick=True)), tmp_path)
    return path


def _orphan_span(payload: dict) -> None:
    payload["spans"][-1]["parent_id"] = 10_000


def _broken_telemetry(payload: dict) -> None:
    payload["telemetry"]["cache"]["hits"] = "many"


@pytest.mark.parametrize("make", [_trace_file, _result_file], ids=["trace", "result"])
def test_cli_valid_telemetry_artifact_exits_zero(make, tmp_path, monkeypatch, capsys):
    """A trace or result JSON is checked against its own schema (ART002),
    not refused as a file that is not a snapshot."""
    code, out, _ = _run_cli([str(make(tmp_path))], monkeypatch, capsys)
    assert code == 0, out
    assert "0 finding(s) in 1 file" in out


@pytest.mark.parametrize(
    ("make", "corrupt"),
    [(_trace_file, _orphan_span), (_result_file, _broken_telemetry)],
    ids=["trace", "result"],
)
def test_cli_corrupted_telemetry_artifact_exits_one(
    make, corrupt, tmp_path, monkeypatch, capsys
):
    path = make(tmp_path)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    code, out, _ = _run_cli([str(path)], monkeypatch, capsys)
    assert code == 1
    assert "ART002" in out and "ART001" not in out
    assert "1 finding(s) in 1 file" in out


# ---------------------------------------------------------------------------
# imports: every imported name is used
# ---------------------------------------------------------------------------


def _unused_imports(path: Path) -> list:
    """``(line, name)`` for every name ``path`` imports and never references.

    A reference is a ``Name`` node or an identifier inside a string
    constant (``__all__`` entries, string annotations).  Import lines that
    carry a ``# noqa`` comment are skipped, as are ``__future__`` imports.
    """
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    referenced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            referenced.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                line = getattr(alias, "lineno", node.lineno)
                if "noqa" in lines[line - 1]:
                    continue
                imported.append((line, alias.asname or alias.name.split(".")[0]))
    return [(line, name) for line, name in imported if name not in referenced]


def test_no_module_imports_a_name_it_never_uses():
    """Every non-``__init__`` module of src/repro uses each name it imports."""
    unused = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path)
    ]
    assert unused == [], "\n".join(unused)


# ---------------------------------------------------------------------------
# seeded regressions: what the CI lint job must catch
# ---------------------------------------------------------------------------


def test_regression_renaming_a_metric_fails_lint(tmp_path):
    """Renaming a catalogued metric re-introduces TEL001."""
    source = (REPO_ROOT / "src/repro/engine/coordinator.py").read_text()
    assert 'repro_merge_total' in source
    mutated = tmp_path / "coordinator.py"
    mutated.write_text(
        source.replace("repro_merge_total", "repro_merges_total")
    )
    report = lint.run_lint([str(mutated)], root=REPO_ROOT)
    assert "TEL001" in {finding.rule for finding in report.findings}
    assert lint.exit_code(report) == 1


def test_regression_bare_transport_recv_fails_lint(tmp_path):
    """Dialing around the retry wrapper re-introduces PRO009."""
    source = (REPO_ROOT / "src/repro/engine/transport/sockets.py").read_text()
    call = "connect_with_retry("
    assert call in source
    mutated = tmp_path / "sockets.py"
    mutated.write_text(source.replace(call, "socket.create_connection("))
    report = lint.run_lint([str(mutated)], root=REPO_ROOT)
    assert "PRO009" in {finding.rule for finding in report.findings}
    assert lint.exit_code(report) == 1


def test_regression_shipping_live_estimators_fails_lint(tmp_path):
    """Worker payloads built without to_bytes re-introduce PRO006."""
    source = (REPO_ROOT / "src/repro/engine/coordinator.py").read_text()
    line = "return [estimator.to_bytes() for estimator in estimators]"
    assert line in source
    # The plumbing check is scoped to the coordinator's library path.
    mutated = tmp_path / "src/repro/engine/coordinator.py"
    mutated.parent.mkdir(parents=True)
    mutated.write_text(source.replace(line, "return list(estimators)"))
    report = lint.run_lint([str(mutated)], root=REPO_ROOT)
    assert "PRO006" in {finding.rule for finding in report.findings}
    assert lint.exit_code(report) == 1


def test_regression_unseeded_rng_fails_lint(tmp_path):
    """Dropping the seed from a real RNG construction re-introduces DET001."""
    source = (REPO_ROOT / "src/repro/sketches/stable_lp.py").read_text()
    assert "np.random.default_rng(seed)" in source
    mutated = tmp_path / "stable_lp.py"
    mutated.write_text(
        source.replace("np.random.default_rng(seed)", "np.random.default_rng()")
    )
    report = lint.run_lint([str(mutated)], root=REPO_ROOT)
    assert "DET001" in {finding.rule for finding in report.findings}


# ---------------------------------------------------------------------------
# module CLI smoke (subprocess, as CI invokes it)
# ---------------------------------------------------------------------------


def test_module_invocation_matches_in_process_exit_code():
    """``python -m repro lint src/repro`` exits 0 from a fresh process."""
    env_path = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src/repro"],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout
