"""The committed engine-bench table is a rendering of the committed JSON."""

import json

from benchmarks.bench_engine import RESULTS_DIR, render_markdown, write_outputs


def test_committed_markdown_renders_from_committed_json():
    payload = json.loads((RESULTS_DIR / "BENCH_engine.json").read_text())
    markdown = (RESULTS_DIR / "BENCH_engine.md").read_text()
    assert markdown == render_markdown(payload)


def test_logical_deliveries_stay_json_only():
    payload = json.loads((RESULTS_DIR / "BENCH_engine.json").read_text())
    rows = [row for entry in payload["workloads"] for row in entry["results"]]
    assert all("logical_deliveries_per_sec" in row for row in rows)
    assert "deliv/s" not in render_markdown(payload)


def test_outputs_land_beside_out(tmp_path):
    payload = json.loads((RESULTS_DIR / "BENCH_engine.json").read_text())
    out = tmp_path / "nested" / "bench.json"
    write_outputs(payload, out)
    assert json.loads(out.read_text()) == payload
    assert (tmp_path / "nested" / "bench.md").read_text() == (
        render_markdown(payload)
    )
