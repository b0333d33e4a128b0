import hashlib
import json

import pytest

from owltamp import bench
from owltamp import world as W
from owltamp.cli import main
from owltamp.solver import Budgets
from owltamp.tasks import load_task


def test_run_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--task", "berry1", "--seeds", "2", "--mode", "manual",
                 "--samples", "200", "--backtracks", "3", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Success rate" in captured and "berry1" in captured
    records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
    assert all(r["success"] for r in records)


def test_run_rejects_unknown_mode(capsys):
    assert main(["run", "--task", "berry1", "--mode", "clairvoyant"]) == 2


def test_fingerprint_prints_the_grid_hash(capsys):
    code = main(["fingerprint", "--modes", "manual", "--rounds", "1", "--task", "berry1"])
    assert code == 0
    lines = bench.run_suite(["berry1"], range(1), ["manual"], Budgets(500, 5)).stable_lines()
    want = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert capsys.readouterr().out.strip() == want


def test_fingerprint_rejects_unknown_mode(capsys):
    assert main(["fingerprint", "--modes", "manual,clairvoyant"]) == 2


@pytest.mark.parametrize("argv, option", [
    (["run", "--task", "nosuch"], "--task"),
    (["run", "--task", "berry1", "--samples", "-1"], "--samples"),
    (["run", "--task", "berry1", "--backtracks", "-1"], "--backtracks"),
    (["run", "--task", "berry1", "--seeds", "-1"], "--seeds"),
    (["run", "--task", "berry1", "--seeds", "two"], "--seeds"),
    (["fingerprint", "--task", "nosuch", "--rounds", "1"], "--task"),
    (["fingerprint", "--task", "berry1", "--rounds", "-1"], "--rounds"),
    (["ground", "dump", "--task", "nosuch"], "--task"),
    (["ground", "dump", "--task", "berry1", "--seed", "-1"], "--seed"),
])
def test_bad_task_or_count_exits_2_with_a_message(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


def test_ground_dump(capsys):
    code = main(["ground", "dump", "--task", "berry1", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pick(strawberry)" in out
    assert "place_ontop(strawberry, light_grey_region)" in out
    assert "HandEmpty()" in out


def test_constraint_check(tmp_path, capsys):
    _, w = load_task("coffee", 0)
    scene_path = tmp_path / "scene.json"
    W.save_scene(w, str(scene_path))
    source = tmp_path / "checks.txt"
    source.write_text(
        "def mug_is_sideways() -> bool:\n"
        "    return abs(mug.pose.roll) > 1.0\n\n"
        "def mug_is_upright() -> bool:\n"
        "    return abs(mug.pose.roll) < 0.1 and abs(mug.pose.pitch) < 0.1\n")
    code = main(["constraint", "check", str(scene_path), str(source)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mug_is_sideways: SAT" in out
    assert "mug_is_upright: UNSAT" in out


def test_constraint_check_bad_file(tmp_path, capsys):
    _, w = load_task("coffee", 0)
    scene_path = tmp_path / "scene.json"
    W.save_scene(w, str(scene_path))
    bad = tmp_path / "bad.txt"
    bad.write_text("def f() -> bool:\n    while True: pass\n")
    assert main(["constraint", "check", str(scene_path), str(bad)]) == 2


def _scene_text(edit):
    _, w = load_task("coffee", 0)
    data = W.scene_to_json(w)
    edit(data)
    return json.dumps(data)


def _short_pose(data):
    data["poses"]["mug"] = data["poses"]["mug"][:5]


def _inverted_workspace(data):
    ws = data["workspace"]
    ws["lower"], ws["upper"] = ws["upper"], ws["lower"]


def _flat_workspace(data):
    ws = data["workspace"]
    ws["lower"], ws["upper"] = ws["lower"][:2], ws["upper"][:2]


@pytest.mark.parametrize("text", [
    '{"objects": []}',
    "not json",
    "[1,2]",
    pytest.param(lambda: _scene_text(_short_pose), id="five-component-pose"),
    pytest.param(lambda: _scene_text(_inverted_workspace), id="inverted-workspace"),
    pytest.param(lambda: _scene_text(_flat_workspace), id="two-component-workspace"),
])
def test_constraint_check_rejects_malformed_scene(tmp_path, capsys, text):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(text() if callable(text) else text)
    source = tmp_path / "checks.txt"
    source.write_text("def f() -> bool:\n    return True\n")
    assert main(["constraint", "check", str(scene_path), str(source)]) == 2
    assert "cannot load scene" in capsys.readouterr().err
