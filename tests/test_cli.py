"""CLI surface: formats, exit codes, determinism, verification plumbing."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpvol.cli as cli
from wpvol.cli import main
from wpvol.volumes import clear_volume_cache


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call_main(argv):
    """(code, stdout, stderr, parsed) of main(argv); an argparse exit counts
    as its code, with parsed False."""
    out, err = io.StringIO(), io.StringIO()
    parsed = True
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code, parsed = exc.code, False
    return code, out.getvalue(), err.getvalue(), parsed


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


@pytest.mark.parametrize("wall", ["1", "1,3"])
def test_wallcross_invalid_wall_set_is_usage_error(wall):
    """A --wall that names no wall of the space is a usage error, as a
    malformed --chamber set is; a well-formed wall not incident stays a
    domain error."""
    argv = ["wallcross", "--g", "1", "--n", "2", "--chamber", '{"light_max":[]}', "--wall", wall]
    labels = ", ".join(wall.split(","))
    assert call_main(argv) == (2, "", f"usage error: invalid wall set [{labels}]\n", True)


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


def test_zero_denominator_weight_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "chamber", "classify", "--g", "0", "--weights", "1/0,1,1")
    assert code == 2
    assert len(err.strip().splitlines()) == 1


def test_exponent_weight_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "chamber", "classify", "--g", "0", "--weights", "1e800000,1,1")
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "exponent" in err


@pytest.mark.parametrize(
    "chamber",
    [
        "[]",
        '{"light_max":[[1,"a"]]}',
        '{"light_max":[],"g":[1]}',
        # JSON booleans are not labels, genera or point counts
        '{"light_max":[[true,2]]}',
        '{"light_max":[],"g":false}',
        '{"light_max":[],"n":true}',
    ],
)
def test_malformed_chamber_json_is_usage_error(capsys, chamber):
    code, _, err = run_cli(capsys, "volume", "--g", "0", "--n", "4", "--chamber", chamber)
    assert code == 2
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [["volume"], ["wallcross", "--wall", "1,2"]])
@pytest.mark.parametrize(
    "chamber",
    [
        '{"g":1,"n":2,"light_max":[]}',
        '{"g":0,"n":5,"light_max":[]}',
        '{"g":1,"n":4,"light_max":[]}',
    ],
)
def test_chamber_json_contradicting_flags_is_usage_error(command, chamber):
    """An inline g or n that differs from --g or --n is an error, not an
    override."""
    code, out, err, parsed = call_main(command + ["--g", "0", "--n", "4", "--chamber", chamber])
    assert (code, parsed, out) == (2, True, "")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", [["volume"], ["wallcross", "--wall", "1,2"]])
@pytest.mark.parametrize(
    "flags, chamber",
    [
        (["--n", "2"], '{"g":1,"n":2,"light_max":[]}'),
        ([], '{"n":2,"light_max":[]}'),
        (["--n", "2"], '{"light_max":[]}'),
    ],
)
def test_chamber_json_agreeing_with_flags(command, flags, chamber):
    """g and n given in both places and agreeing, or in one place only."""
    code, out, err, parsed = call_main(command + ["--g", "1", "--chamber", chamber] + flags)
    assert (code, parsed, err) == (0, True, "")
    assert out


def test_verify_paper_suite_json():
    """The paper suite is criteria 1-7 of the check table: all pass, and it
    produces exactly their pinned check IDs."""
    with open(Path(__file__).parent / "verify_ids.json") as fh:
        pinned = json.load(fh)
    code, out, err, parsed = call_main(["verify", "--suite", "paper", "--format", "json"])
    assert (code, parsed, err) == (0, True, "")
    data = json.loads(out)
    assert (data["suite"], data["failed"]) == ("paper", 0)
    assert [r["id"] for r in data["results"]] == sorted(
        i for k in range(1, 8) for i in pinned[str(k)]
    )


def test_verify_mutation_smoke(monkeypatch, fresh_volume_caches):
    """An injected off-by-one in phi breaks the continuity check visibly.

    The crossing reads phi_S = sigma - 2(s-1) pi through the expansion of
    its powers (``volumes._phi_row``), so the pi coefficient is put off by
    one there."""
    from math import comb

    from wpvol import volumes
    from wpvol.chambers import StabilitySpace
    from wpvol.verify import Reporter, check_continuity

    true_row = volumes._phi_row

    def broken_row(s, k):
        P, row = true_row(s, k)
        N = len(row) - 1
        return P, tuple(comb(N, i) * (1 - 2 * (s - 1)) ** (N - i) for i in range(N + 1))

    monkeypatch.setattr(volumes, "_phi_row", broken_row)
    rep = Reporter()
    check_continuity(rep, [StabilitySpace(1, 2)])
    assert any(not r.passed for r in rep.results)
    monkeypatch.undo()
    clear_volume_cache()  # drop the crossings memoized with the broken phi
    rep = Reporter()
    check_continuity(rep, [StabilitySpace(1, 2)])
    assert all(r.passed for r in rep.results)


def test_enumerate_over_bound_is_domain_error():
    """n = 7 is over the enumeration bound: exit 1 at once, not a search
    that does not end."""
    code, out, err, parsed = call_main(["chamber", "enumerate", "--g", "0", "--n", "7"])
    assert (code, parsed, out) == (1, True, "")
    assert len(err.strip().splitlines()) == 1 and "bound" in err and "Traceback" not in err


def test_enumerate_d06_up_to_symmetry():
    code, out, err, parsed = call_main(
        ["chamber", "enumerate", "--g", "0", "--n", "6", "--up-to-symmetry"]
    )
    assert (code, parsed, err) == (0, True, "")
    lines = out.splitlines()
    assert lines[0] == "448 chambers" and len(lines) == 449


def test_enumerate_without_n_is_usage_error():
    code, _, err, parsed = call_main(["chamber", "enumerate", "--g", "0"])
    assert (code, parsed) == (2, False)
    assert "--n" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["volume"], ["wallcross", "--wall", "1,2"]])
@pytest.mark.parametrize(
    "source",
    [[], ["--weights", "9/10,9/10,9/10,9/10", "--chamber", '{"light_max":[[3,4]]}']],
)
def test_exactly_one_chamber_source(command, source):
    """Neither or both of --weights and --chamber is a usage error."""
    code, out, _, parsed = call_main(command + ["--g", "0", "--n", "4"] + source)
    assert (code, parsed, out) == (2, False, "")


@pytest.mark.parametrize(
    "flag", [["--cache", "cache.txt"], ["--max-genus", "3"], ["--precision", "7"]]
)
def test_removed_flags_are_usage_errors(flag):
    code, out, _, parsed = call_main(
        ["volume", "--g", "1", "--n", "2", "--chamber", '{"light_max":[]}'] + flag
    )
    assert (code, parsed, out) == (2, False, "")


_CLASSIFY = ["chamber", "classify", "--g", "0", "--weights", "1,2/5,2/5,2/5"]
_ENUMERATE = ["chamber", "enumerate", "--g", "0", "--n", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["wallcross", "--g", "1", "--weights", "9/10,9/10", "--wall", "1,2", "--precision", "7"],
        _CLASSIFY + ["--precision", "7"],
        _ENUMERATE + ["--precision", "7"],
        _CLASSIFY + ["--format", "latex"],
        _ENUMERATE + ["--format", "latex"],
    ],
)
def test_unread_flags_are_usage_errors(argv):
    """--precision belongs to eval alone; chamber output has no latex form."""
    code, out, _, parsed = call_main(argv)
    assert (code, parsed, out) == (2, False, "")


# -- fuzzing ---------------------------------------------------------------------

_number = st.integers(-3, 12).map(str)
_rational = st.one_of(_number, st.tuples(_number, _number).map("/".join))
_unit = st.fractions(0, 1, max_denominator=10).filter(bool).map(str)  # valid weights
# no commas, so at most 4 weights; 6 characters keep "1e..." exponents small
_junk = st.text(alphabet="0123456789/-.+ e_x", max_size=6)
_weights = st.one_of(
    st.lists(_unit, min_size=1, max_size=4),
    st.lists(st.one_of(_unit, _rational, _junk), min_size=1, max_size=4),
).map(",".join)
_json_label = st.one_of(st.integers(-1, 5), st.booleans(), st.just("1"), st.none())
_chamber_obj = st.fixed_dictionaries(
    {"light_max": st.lists(st.lists(_json_label, max_size=4), max_size=3)},
    optional={
        "g": st.one_of(st.integers(-1, 1), st.booleans(), st.just(0.0)),
        "n": st.one_of(st.integers(0, 4), st.booleans(), st.just("4")),
    },
)
_chamber = st.one_of(
    _chamber_obj.map(json.dumps),
    st.one_of(st.lists(st.integers()), st.integers(), st.none()).map(json.dumps),
    st.text(alphabet='{}[]":,0123456789 light_max', max_size=24),
)
_wall = st.one_of(
    st.sets(st.integers(1, 4), min_size=2).map(lambda js: ",".join(map(str, js))),
    st.lists(st.integers(-1, 5), max_size=4).map(lambda js: ",".join(map(str, js))),
    st.text(alphabet="0123456789,- a", max_size=6),
)
_format = st.sampled_from(["text", "json", "latex"])


@st.composite
def cli_argv(draw):
    g = ["--g", str(draw(st.integers(-1, 1)))]
    fmt = ["--format", draw(_format)]
    command = draw(st.sampled_from(["classify", "volume", "wallcross", "eval"]))
    if command == "classify":
        return ["chamber", "classify"] + g + fmt + ["--weights", draw(_weights)]
    if command == "eval":
        numeric = ["--numeric", "--precision", str(draw(st.integers(-1, 40)))]
        return ["eval"] + g + ["--weights", draw(_weights)] + draw(st.sampled_from([[], numeric]))
    n = draw(st.sampled_from([[], ["--n", str(draw(st.integers(0, 4)))]]))
    source = draw(st.sampled_from(["weights", "chamber", "both", "neither"]))
    argv = [command] + g + fmt + n
    if source in ("weights", "both"):
        argv += ["--weights", draw(_weights)]
    if source in ("chamber", "both"):
        argv += ["--chamber", draw(_chamber)]
    if command == "wallcross":
        argv += ["--wall", draw(_wall)]
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exit_codes(argv):
    """Any argument list gives exit 0, 1 or 2 and never a traceback; a usage
    error reported by main itself is one line."""
    code, _, err, parsed = call_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2 and parsed:
        assert len(err.strip().splitlines()) == 1, (argv, err)


# -- cost bounds ---------------------------------------------------------------------


class Reached(Exception):
    """Raised by a patched computation: the input got past the bounds."""


def _reached(*args, **kwargs):
    raise Reached


def _patch_computations(monkeypatch):
    """Every computation a command line can start now raises ``Reached``."""
    for name in ("classify", "chamber_volume", "wall_crossing_poly", "piecewise_volume"):
        monkeypatch.setattr(cli, name, _reached)


def _assert_bound(argv, message):
    code, out, err, parsed = call_main(argv)
    assert (code, parsed, out) == (1, True, "")
    assert err == f"error: {message}\n"


def _nine_tenths(n):
    return ",".join(["9/10"] * n)


@pytest.mark.parametrize(
    "command",
    [
        ["chamber", "classify", "--g", "1", "--weights"],
        ["volume", "--g", "0", "--weights"],
        ["wallcross", "--g", "0", "--wall", "1,2", "--weights"],
        ["eval", "--g", "0", "--weights"],
        ["volume", "--g", "0", "--n", "{n}", "--chamber"],
        ["wallcross", "--g", "0", "--wall", "1,2", "--n", "{n}", "--chamber"],
    ],
    ids=["classify", "volume", "wallcross", "eval", "volume-chamber", "wallcross-chamber"],
)
def test_points_bound(monkeypatch, command):
    """More than MAX_POINTS points is rejected before any computation, for
    --weights and --chamber alike; MAX_POINTS points are not."""
    _patch_computations(monkeypatch)
    for n in (cli.MAX_POINTS + 1, 30, 10_000):
        source = '{"light_max":[]}' if command[-1] == "--chamber" else _nine_tenths(n)
        argv = [a.format(n=n) for a in command] + [source]
        _assert_bound(argv, f"n={n} exceeds the command-line bound MAX_POINTS={cli.MAX_POINTS}")
    n = cli.MAX_POINTS
    source = '{"light_max":[]}' if command[-1] == "--chamber" else _nine_tenths(n)
    with pytest.raises(Reached):
        call_main([a.format(n=n) for a in command] + [source])


@pytest.mark.parametrize(
    "command",
    [
        ["volume", "--weights"],
        ["wallcross", "--wall", "1,2", "--weights"],
        ["eval", "--weights"],
        ["eval", "--numeric", "--weights"],
    ],
    ids=["volume", "wallcross", "eval", "eval-numeric"],
)
def test_degree_bound(monkeypatch, command):
    """A volume of degree 3g-3+n above MAX_DEGREE is rejected before any
    computation; degree MAX_DEGREE is not, and classify has no degree."""
    _patch_computations(monkeypatch)
    for g, n in ((99_999, 1), (cli.MAX_DEGREE // 3 + 2, 1), (3, cli.MAX_DEGREE - 5)):
        d = 3 * g - 3 + n
        assert d > cli.MAX_DEGREE and n <= cli.MAX_POINTS
        argv = [command[0], "--g", str(g), *command[1:], _nine_tenths(n)]
        _assert_bound(argv, f"degree 3g-3+n={d} exceeds the command-line bound MAX_DEGREE={cli.MAX_DEGREE}")
    g, n = 2, cli.MAX_DEGREE - 3
    with pytest.raises(Reached):
        call_main([command[0], "--g", str(g), *command[1:], _nine_tenths(n)])
    with pytest.raises(Reached):
        call_main(["chamber", "classify", "--g", "99999", "--weights", "1/2"])


def test_precision_bound(monkeypatch):
    """eval --numeric past MAX_DIGITS digits is rejected before any
    computation; MAX_DIGITS digits, or any precision without --numeric, are
    not."""
    _patch_computations(monkeypatch)
    argv = ["eval", "--g", "1", "--weights", "1/10,1/10"]
    for digits in (cli.MAX_DIGITS + 1, 100_000_000):
        _assert_bound(
            argv + ["--numeric", "--precision", str(digits)],
            f"precision {digits} exceeds the command-line bound MAX_DIGITS={cli.MAX_DIGITS}",
        )
    for extra in (["--numeric", "--precision", str(cli.MAX_DIGITS)], ["--precision", "100000000"]):
        with pytest.raises(Reached):
            call_main(argv + extra)


def test_precision_below_one_digit(monkeypatch):
    """eval --numeric below 1 digit is a one-line usage error before any
    computation; without --numeric the precision is not read."""
    _patch_computations(monkeypatch)
    argv = ["eval", "--g", "1", "--weights", "1/10,1/10", "--precision"]
    for digits in ("0", "-3", "-20"):
        got = call_main(argv + [digits, "--numeric"])
        assert got == (2, "", "usage error: precision must be at least 1 digit\n", True)
        with pytest.raises(Reached):
            call_main(argv + [digits])
