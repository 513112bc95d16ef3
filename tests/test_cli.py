"""CLI surface: formats, exit codes, determinism, verification plumbing."""

import json

import pytest

from wpvol.cli import main
from wpvol.volumes import clear_volume_cache


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chamber_classify_text(capsys):
    code, out, _ = run_cli(capsys, "chamber", "classify", "--g", "0", "--weights", "1,2/5,2/5,2/5")
    assert code == 0
    assert "light_max=[{2,3},{2,4},{3,4}]" in out


def test_chamber_classify_json(capsys):
    code, out, _ = run_cli(
        capsys, "chamber", "classify", "--g", "0", "--weights", "1,2/5,2/5,2/5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"g": 0, "n": 4, "light_max": [[2, 3], [2, 4], [3, 4]]}


def test_chamber_classify_on_wall_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "chamber", "classify", "--g", "0", "--weights", "1/2,1/2,3/4,3/4"
    )
    assert code == 1
    assert "wall" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--g"])  # missing value
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "volume", "--g", "0", "--n", "4", "--chamber", "{bad json")
    assert code == 2


def test_volume_latex_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "volume", "--g", "0", "--weights", "9/10,9/10,9/10,9/10", "--format", "latex"
    )
    assert code == 0
    assert out.strip() == (
        "2\\pi^{2} - \\frac{1}{2}\\theta_{1}^{2} - \\frac{1}{2}\\theta_{2}^{2}"
        " - \\frac{1}{2}\\theta_{3}^{2} - \\frac{1}{2}\\theta_{4}^{2}"
    )


def test_wallcross_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        "wallcross",
        "--g", "1", "--n", "2",
        "--chamber", '{"light_max":[]}',
        "--wall", "1,2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    from wpvol.poly import poly_from_json_dict
    from wpvol.reference import wall_crossing_12

    assert poly_from_json_dict(data["poly"]) == wall_crossing_12()
    assert data["wall"] == [1, 2]


def test_wallcross_not_incident_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys,
        "wallcross",
        "--g", "0", "--n", "4",
        "--chamber", '{"light_max":[[3,4]]}',
        "--wall", "3,4",
    )
    assert code == 1


def test_chamber_enumerate(capsys):
    code, out, _ = run_cli(
        capsys, "chamber", "enumerate", "--g", "0", "--n", "4", "--up-to-symmetry"
    )
    assert code == 0
    assert out.startswith("5 chambers")
    code, out, _ = run_cli(
        capsys, "chamber", "enumerate", "--g", "0", "--n", "4", "--format", "json"
    )
    data = json.loads(out)
    assert data["count"] == 27


def test_eval_formal_and_numeric(capsys):
    code, out, _ = run_cli(capsys, "eval", "--g", "1", "--weights", "1/10,1/10")
    assert code == 0
    assert "37/30000*pi^4" in out
    code, out2, _ = run_cli(
        capsys, "eval", "--g", "1", "--weights", "1/10,1/10", "--numeric", "--precision", "30"
    )
    assert code == 0
    assert out2.strip().startswith("0.1201378789419363392582764103")


def test_json_outputs_are_deterministic(capsys):
    args = ["volume", "--g", "0", "--n", "4", "--chamber", '{"light_max":[[3,4]]}',
            "--format", "json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    from wpvol.poly import poly_from_json_dict
    from wpvol.reference import chamber_volumes_04

    assert poly_from_json_dict(data["poly"]) == chamber_volumes_04()["B1"]


def test_cache_file_flag(tmp_path, capsys):
    path = tmp_path / "cache.txt"
    code, _, _ = run_cli(
        capsys, "volume", "--g", "1", "--n", "2", "--chamber", '{"light_max":[]}',
        "--cache", str(path),
    )
    assert code == 0
    assert path.exists()
    text = path.read_text()
    assert "1;0;1;1/24" in text  # <tau_1>_1 = 1/24 got cached
    # loading the cache back works
    code, _, _ = run_cli(
        capsys, "volume", "--g", "1", "--n", "2", "--chamber", '{"light_max":[]}',
        "--cache", str(path),
    )
    assert code == 0


def test_zero_denominator_weight_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "chamber", "classify", "--g", "0", "--weights", "1/0,1,1")
    assert code == 2
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "chamber", ["[]", '{"light_max":[[1,"a"]]}', '{"light_max":[],"g":[1]}']
)
def test_malformed_chamber_json_is_usage_error(capsys, chamber):
    code, _, err = run_cli(capsys, "volume", "--g", "0", "--n", "4", "--chamber", chamber)
    assert code == 2
    assert len(err.strip().splitlines()) == 1


@pytest.fixture
def fresh_volume_caches():
    """Empty the volume and wall-crossing memos before and after the test, so
    it neither reads values computed earlier nor leaves broken ones behind."""
    clear_volume_cache()
    yield
    clear_volume_cache()


def test_verify_mutation_smoke(monkeypatch, fresh_volume_caches):
    """An injected off-by-one in phi breaks the continuity check visibly."""
    from wpvol import volumes
    from wpvol.chambers import StabilitySpace
    from wpvol.poly import phi_form as true_phi
    from wpvol.verify import Reporter, check_continuity

    def broken_phi(ring, wall):
        return true_phi(ring, wall) + ring.one()

    monkeypatch.setattr(volumes, "phi_form", broken_phi)
    rep = Reporter()
    check_continuity(rep, [StabilitySpace(1, 2)])
    assert any(not r.passed for r in rep.results)
    monkeypatch.undo()
    clear_volume_cache()  # drop the crossings memoized with the broken phi
    rep = Reporter()
    check_continuity(rep, [StabilitySpace(1, 2)])
    assert all(r.passed for r in rep.results)
