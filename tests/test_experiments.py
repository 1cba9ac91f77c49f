"""The experiment layer: spec validation, registry completeness, CLI, round trip."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.engine.transport import DEFAULT_TRANSPORT_BLOCK_ROWS
from repro.errors import InvalidParameterError
from repro.experiments import (
    EngineConfig,
    EstimatorSpec,
    ExperimentSpec,
    ResultTable,
    RunParams,
    ScenarioOutput,
    all_scenarios,
    get_scenario,
    render_markdown,
    run_experiment,
    scenario_names,
    validate_result_payload,
)

# ---------------------------------------------------------------------------
# registry completeness
# ---------------------------------------------------------------------------


def test_registry_has_at_least_six_scenarios():
    assert len(scenario_names()) >= 6


def test_headline_scenarios_are_registered():
    names = scenario_names()
    assert "figure1" in names
    assert "table1" in names


def test_every_registered_spec_is_complete():
    for spec in all_scenarios():
        spec.validate()  # must not raise
        assert spec.title.strip()
        assert spec.paper_ref.strip()
        assert spec.description.strip()
        assert spec.metrics
        if spec.is_engine_scenario:
            assert spec.workload is not None
            assert spec.estimators


def test_unknown_scenario_lookup_raises():
    with pytest.raises(InvalidParameterError, match="unknown scenario"):
        get_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# spec and params validation
# ---------------------------------------------------------------------------


def _minimal_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="valid-name",
        title="A title",
        paper_ref="Theorem 0.0",
        description="A description.",
        metrics=("m",),
        run=lambda ctx: ScenarioOutput(metrics={"m": 1.0}),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def test_spec_rejects_bad_names():
    for bad in ("Has Space", "CamelCase", "under_score", ""):
        with pytest.raises(InvalidParameterError, match="kebab"):
            _minimal_spec(name=bad).validate()


def test_spec_rejects_empty_metrics_and_duplicates():
    with pytest.raises(InvalidParameterError, match="at least one metric"):
        _minimal_spec(metrics=()).validate()
    with pytest.raises(InvalidParameterError, match="duplicate"):
        _minimal_spec(metrics=("m", "m")).validate()


def test_engine_spec_requires_workload_and_estimators():
    with pytest.raises(InvalidParameterError, match="workload"):
        _minimal_spec(engine=EngineConfig()).validate()


def test_engine_config_validation():
    with pytest.raises(InvalidParameterError):
        EngineConfig(n_shards=0).validate()
    with pytest.raises(InvalidParameterError):
        EngineConfig(policy="nope").validate()
    with pytest.raises(InvalidParameterError):
        EngineConfig(backend="nope").validate()


def test_engine_config_overrides():
    config = EngineConfig(n_shards=4, batch_size=2048)
    overridden = config.with_overrides(RunParams(n_shards=2, batch_size=0))
    assert overridden.n_shards == 2
    assert overridden.batch_size is None  # 0 forces the per-row path
    untouched = config.with_overrides(RunParams())
    assert untouched == config


def test_run_params_validation():
    with pytest.raises(InvalidParameterError):
        RunParams(seed=-1).validate()
    with pytest.raises(InvalidParameterError):
        RunParams(n_shards=0).validate()


def test_result_table_rejects_ragged_rows():
    with pytest.raises(InvalidParameterError, match="cells"):
        ResultTable(title="t", headers=("a", "b"), rows=((1,),)).validate()


def test_metric_drift_fails_loudly():
    spec = _minimal_spec(
        metrics=("declared",),
        run=lambda ctx: ScenarioOutput(metrics={"something_else": 1.0}),
    )
    with pytest.raises(InvalidParameterError, match="drifted"):
        run_experiment(spec)


# ---------------------------------------------------------------------------
# every scenario runs --quick and produces schema-valid JSON
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_quick_run_produces_schema_valid_payload(name):
    result = run_experiment(name, RunParams(seed=0, quick=True))
    payload = result.to_dict()
    assert validate_result_payload(payload) == []
    assert set(result.metrics) == set(get_scenario(name).metrics)
    # The payload survives a JSON round trip unchanged.
    assert validate_result_payload(json.loads(json.dumps(payload))) == []


def test_quick_and_full_share_metric_keys():
    spec = get_scenario("lb-f0")
    quick = run_experiment(spec, RunParams(quick=True))
    assert set(quick.metrics) == set(spec.metrics)


def test_metrics_are_deterministic_per_seed():
    first = run_experiment("table1", RunParams(seed=3, quick=True))
    second = run_experiment("table1", RunParams(seed=3, quick=True))
    assert first.metrics == second.metrics
    assert first.tables == second.tables


def test_figure1_matches_the_benchmark_reading():
    """The scenario records the same numbers the benchmark asserts."""
    result = run_experiment("figure1", RunParams(seed=0))
    assert 10 <= result.metrics["approximation_at_quarter_space"] < 100
    assert 100 <= result.metrics["approximation_at_eighth_space"] < 1000
    assert result.metrics["sketches_at_eighth_space"] == pytest.approx(4096, rel=0.25)


def test_throughput_sweep_honours_forced_per_row_path():
    """--batch-size 0 must drop the batched arm, not silently sweep 2048."""
    result = run_experiment(
        "ingest-throughput", RunParams(quick=True, batch_size=0)
    )
    assert result.engine is not None and result.engine.batch_size is None
    table = result.tables[0]
    batch_column = table.headers.index("batch size")
    assert all(row[batch_column] == "per-row" for row in table.rows)
    assert result.metrics["batch_speedup_single_shard"] == 1.0


def test_throughput_sweep_labels_the_blocks_worker_backends_route():
    """batch_size=None reads "per-row" only where rows went one at a time:
    the one-shard run.  With two shards, processes routes default blocks."""
    result = run_experiment(
        "ingest-throughput",
        RunParams(quick=True, backend="processes", batch_size=0),
    )
    table = result.tables[0]
    shards = table.headers.index("shards")
    batch_column = table.headers.index("batch size")
    labels = {row[shards]: row[batch_column] for row in table.rows}
    assert labels == {1: "per-row", 2: f"{DEFAULT_TRANSPORT_BLOCK_ROWS} (default)"}


def test_shard_override_reaches_the_engine():
    result = run_experiment(
        "usample-accuracy", RunParams(quick=True, n_shards=1, batch_size=0)
    )
    assert result.engine is not None
    assert result.engine.n_shards == 1
    assert result.engine.batch_size is None


def test_validate_result_payload_flags_problems():
    assert validate_result_payload([]) != []
    assert validate_result_payload({"schema": "wrong"}) != []
    good = run_experiment("figure1", RunParams(quick=True)).to_dict()
    broken = dict(good, metrics={})
    assert any("metrics" in problem for problem in validate_result_payload(broken))


# ---------------------------------------------------------------------------
# CLI: list / run / report and the run <-> report round trip
# ---------------------------------------------------------------------------


def test_cli_list_names_every_scenario(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_cli_run_writes_json_and_markdown(tmp_path, capsys):
    assert cli_main(["run", "figure1", "--quick", "--out", str(tmp_path)]) == 0
    json_path = tmp_path / "figure1.json"
    md_path = tmp_path / "figure1.md"
    assert json_path.exists() and md_path.exists()
    payload = json.loads(json_path.read_text())
    assert validate_result_payload(payload) == []
    assert md_path.read_text() == render_markdown(payload)


def test_cli_run_and_report_agree(tmp_path, capsys):
    """The round trip: report regenerates byte-identical Markdown from JSON."""
    assert cli_main(["run", "table1", "--quick", "--out", str(tmp_path)]) == 0
    md_path = tmp_path / "table1.md"
    written_by_run = md_path.read_text()
    md_path.unlink()
    assert cli_main(["report", "--out", str(tmp_path)]) == 0
    assert md_path.read_text() == written_by_run
    assert (tmp_path / "REPORT.md").exists()
    assert "table1" in (tmp_path / "REPORT.md").read_text()


def test_cli_run_honours_seed_and_overrides(tmp_path, capsys):
    assert (
        cli_main(
            [
                "run",
                "usample-accuracy",
                "--quick",
                "--seed",
                "7",
                "--shards",
                "1",
                "--batch-size",
                "64",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    payload = json.loads((tmp_path / "usample-accuracy.json").read_text())
    assert payload["params"]["seed"] == 7
    assert payload["engine"]["n_shards"] == 1
    assert payload["engine"]["batch_size"] == 64


def test_cli_rejects_unknown_scenario(capsys):
    assert cli_main(["run", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_report_on_empty_directory_fails(tmp_path, capsys):
    assert cli_main(["report", "--out", str(tmp_path / "empty")]) == 1
