import ast
import dataclasses
import hashlib
import inspect
import json
import math

import numpy as np
import pytest

from oracles import build_rotation_poset_bfs
from smcensus import cli, distributions, rotations, verify
from smcensus.cli import main
from smcensus.bounds import SERIES_MIN_TRUNCATION
from smcensus.counting import FamilyError
from smcensus.instances import N_CAP, instance_I2, irving_leather, serialize_instance
from smcensus.matchings import BRUTE_FORCE_CAP
from smcensus.posets import PosetError
from smcensus.rng import Xoshiro256StarStar


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_enumerate_fixture_file(tmp_path, capsys):
    path = tmp_path / "i2.json"
    path.write_text(serialize_instance(instance_I2()), encoding="utf-8")
    code, lines = run_cli(capsys, "enumerate", "--in", str(path), "--method", "both")
    assert code == 0
    assert lines[0]["counts"] == {"brute": 2, "rotations": 2, "downsets": 2}


def test_enumerate_random(capsys):
    code, lines = run_cli(capsys, "enumerate", "--n", "5", "--seed", "3")
    assert code == 0 and lines[0]["passed"]


def test_rotations_report(capsys):
    code, lines = run_cli(capsys, "rotations", "--n", "4", "--seed", "1")
    assert code == 0
    assert lines[0]["structure"]["edge_uniqueness"] is True


def test_grids_diamond(capsys):
    code, lines = run_cli(capsys, "grids", "--diamond", "5")
    assert code == 0
    assert lines[0]["downsets"] == 252


def test_bounds_report(capsys):
    code, lines = run_cli(capsys, "bounds", "--n", "2")
    assert code == 0
    assert lines[0]["checks"]["exp(2.4076) <= 11.11"] is True


def test_series_plain_within_limit(capsys):
    code, lines = run_cli(capsys, "series", "--which", "tg", "--truncate", "100000")
    assert code == 0
    assert lines[0]["hi"] <= 1.2038
    assert lines[0]["certified_base"] == math.exp(2 * lines[0]["hi"])
    assert 11.10 < lines[0]["certified_base"] < 11.11


def test_series_extended_exceeds_limit(capsys):
    # the extended series evaluates near 0.694, above the asserted 0.6331,
    # so this check honestly reports failure
    code, lines = run_cli(capsys, "series", "--which", "sm", "--truncate", "100000")
    assert code == 1
    assert lines[0]["hi"] > 0.6331
    assert lines[0]["certified_base"] == math.exp(2 * lines[0]["hi"]) > 3.55


def test_bounds_has_no_series_flags():
    # series values come from `series --which` alone
    for flag in ("--series", "--truncate"):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "2", flag, "10"])
        assert exc.value.code == 2


def test_verify_has_no_suite_flag():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", "--only", "c10"])
    assert exc.value.code == 2


def test_verify_sets_every_run_config_field():
    """Every RunConfig field is a flag of `verify`: a field that the command
    does not set is an option no caller changes, and belongs in a constant."""
    tree = ast.parse(inspect.getsource(cli._cmd_verify))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "RunConfig"]
    assert len(calls) == 1
    assert {kw.arg for kw in calls[0].keywords} == \
        {field.name for field in dataclasses.fields(verify.RunConfig)}


def test_random_round_trips(capsys):
    code, _ = run_cli(capsys, "random", "--n", "3", "--seed", "2")
    assert code == 0


def test_simulate_cyclic(capsys):
    code, lines = run_cli(capsys, "simulate", "--kind", "cyclic", "--n", "3",
                          "--l", "2", "--samples", "2000")
    assert code == 0
    assert set(lines[0]["pmf"]) == {1, 2, 3} or set(lines[0]["pmf"]) == {"1", "2", "3"}


def test_simulate_line_gap(capsys):
    code, lines = run_cli(capsys, "simulate", "--kind", "extended", "--x", "0.5",
                          "--samples", "4000", "--seed", "3")
    assert code == 0
    assert lines[0]["window"] == 80
    assert abs(lines[0]["freq"]["1"] - 0.5 - 0.5 * 0.75 ** 2) < 0.03


def test_report_to_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(["grids", "--diamond", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["downsets"] == 6


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "x.json"
    assert_usage_error(capsys, ["grids", "--diamond", "2", "--out", str(path)],
                       "UsageError", f"cannot write --out {path}")


def test_grids_diamond_past_the_old_size_cap(capsys):
    # 81 elements: above the former 64-element cap, well inside the state cap
    code, lines = run_cli(capsys, "grids", "--diamond", "9")
    assert code == 0
    assert lines[0]["downsets"] == lines[0]["expected"] == 48620


def by_content(report):
    """A rotations or grids report with each element id replaced by what
    the element is: a rotation by its edges, a grid element by its
    (m-chain, w-chain) coordinate."""
    key = "poset" if "poset" in report else "grid"
    poset = report[key]
    if key == "poset":
        label = [tuple(map(tuple, edges)) for edges in poset["rotations"]]
    else:
        m_of = {e: u for u, chain in enumerate(poset["m_chains"]) for e in chain}
        w_of = {e: v for v, chain in enumerate(poset["w_chains"]) for e in chain}
        label = [(m_of[e], w_of[e]) for e in range(poset["size"])]
    relabelled = {**poset, "covers": sorted((label[a], label[b]) for a, b in poset["covers"])}
    for side in ("m_chains", "w_chains"):
        relabelled[side] = [[label[e] for e in chain] for chain in poset[side]]
    if key == "poset":
        relabelled["rotations"] = sorted(label)
    return {**report, key: relabelled}


@pytest.mark.parametrize("command", ["rotations", "grids"])
def test_poset_output_equals_bfs_oracle_output(monkeypatch, capsys, tmp_path, command):
    """The reports from the chain builder and from the BFS oracle agree by
    content; their ids, chain steps and discovery order, may differ."""
    argvs = [[command, "--n", str(n), "--seed", str(seed)]
             for n in range(2, 13) for seed in (n, 100 + n)]
    for k in (2, 3):
        path = tmp_path / f"il{k}.json"
        path.write_text(serialize_instance(irving_leather(k)), encoding="utf-8")
        argvs.append([command, "--in", str(path)])
    for argv in argvs:
        assert main(argv) == 0
        fast = json.loads(capsys.readouterr().out)
        with monkeypatch.context() as patch:
            patch.setattr(rotations, "build_rotation_poset", build_rotation_poset_bfs)
            assert main(argv) == 0
        assert by_content(json.loads(capsys.readouterr().out)) == by_content(fast)


def test_reports_byte_identical_across_runs(tmp_path):
    argv = ["simulate", "--kind", "dependence", "--x", "0.5",
            "--samples", "3000", "--seed", "9"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# (argv, exit code, sha256 of stdout): every command's report, byte for byte
CLI_REPORT_BYTES = [
    (["enumerate", "--n", "5", "--seed", "3"], 0,
     "327a1a9390cc3e084cbc39e0ab4ba498ea859c240722e46a25328f27919ba2fb"),
    (["enumerate", "--n", "6", "--seed", "1", "--method", "rotations"], 0,
     "57e0d12eeb4711a1d210dd86164bc831601e04ed1c547dcfceddc758461062df"),
    (["rotations", "--n", "5", "--seed", "1"], 0,
     "e45b3e362c630911d9252b1a841f9de6782026b5ec6a532d351dbe1b92ab066b"),
    (["grids", "--diamond", "3"], 0,
     "1e58a0cee1dee63575435eaafa52d966d4f56692e03221b3ad80a1850f9597ba"),
    (["grids", "--n", "4", "--seed", "2"], 0,
     "56b2974f378dde8dbf31547cbb19b9b0692946e9f17c669dae083883fd6a67da"),
    (["series", "--which", "tg", "--truncate", "100000"], 0,
     "0acf2b73eee225c0910d26c4e201a3443167f3185a9a4b37dc2ebba4fa68e0cc"),
    (["series", "--which", "sm", "--truncate", "100000"], 1,
     "16e87df6fc9356bd718219b561594754964bdd8606d870e0a085c69d98d1ebce"),
    # 61 whole chunks and part of one more
    (["series", "--which", "tg", "--truncate", "2000017"], 0,
     "291aa74d302d42046817c49c5fc7df9100d64e67523f7c2d8a9f1c50d836d520"),
    (["series", "--which", "sm", "--truncate", "2000017"], 1,
     "8eb829258fcb1c47b4c14f02025abaa196ad1797cf18e124a6e4b16d49881693"),
    (["bounds", "--n", "3"], 0,
     "f14d13af67ec82452f109448ffc34faf84e74d81da9671a43eb5e92acd92d836"),
    (["simulate", "--kind", "cyclic", "--n", "5", "--l", "3", "--samples", "2000"], 0,
     "1127eb1f41c48f3bc7a413427df35e6194fc4f2684cad4038e169f4b7317cb81"),
    (["simulate", "--kind", "plain", "--x", "0.3", "--samples", "2000"], 0,
     "c458a7d2fbbad6e0ffc619f9934dceb726dcd18c1c6dce635756624a16ffafaf"),
    (["simulate", "--kind", "extended", "--x", "0.3", "--samples", "2000"], 0,
     "679bb4679e02219f5bd6e1f6900b0c8e5cb476928de985a585eca35381361ccb"),
    (["simulate", "--kind", "dependence", "--x", "0.3", "--samples", "4000"], 0,
     "b95cb4b8ff221e58bd449776ddf023075f9de9639291e1994364e0fff04ba4e8"),
    (["simulate", "--kind", "asymptotic", "--n", "50", "--samples", "1500"], 0,
     "796e693c1a7a29873c7d66471f4ddf396498b4b7d0dd7056ad103f0504e1eb95"),
    (["random", "--n", "4", "--seed", "7"], 0,
     "5c6f9b59683e55180fd99a634791eb8e1891fe89b7e3d73b864390e9cf0a28a3"),
    # the identity and constants checks at the default 10^7 truncation and
    # 10^6 scan limit (c11 is the known extended-series failure)
    (["verify", "--only", "c10,c11"], 1,
     "7e5c88a51185f5d705bfb63af36a3be868affd337ac7ac6ab050586750c77419"),
    # the option-count bounds with their margins and the dominance check,
    # 200 Monte Carlo orders per family, at two seeds
    (["verify", "--only", "c06,c09", "--samples", "20000", "--seed", "42"], 0,
     "080a1ce27892504e39b2ceb335a350e8856b9283c7bd39a48268cf37b1ecf185"),
    (["verify", "--only", "c06,c09", "--samples", "20000", "--seed", "7"], 0,
     "d9e8738927674dbeb1d7787853648885a9a9167d56afe0deaff70d0142f0d379"),
]


@pytest.mark.parametrize("argv, code, digest", CLI_REPORT_BYTES,
                         ids=[" ".join(argv) for argv, _, _ in CLI_REPORT_BYTES])
def test_cli_report_bytes(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# (command, sha256 of stdout) on irving_leather(3) read with --in: rotation
# ids are chain steps, which differ from the lattice BFS's discovery order
# on this instance
IRVING_LEATHER_3_REPORT_BYTES = [
    ("rotations", "bf9ccb30e9dabb7921f16b9141501f1a82c3a618092c6b13785b877d83b80afe"),
    ("grids", "eb8ef27852c7a8fc16fc901ba73da11674a9c2beef291de3efcaa5802e4ae3f6"),
]


@pytest.mark.parametrize("command, digest", IRVING_LEATHER_3_REPORT_BYTES,
                         ids=[command for command, _ in IRVING_LEATHER_3_REPORT_BYTES])
def test_irving_leather_report_bytes(capsys, tmp_path, command, digest):
    path = tmp_path / "il3.json"
    path.write_text(serialize_instance(irving_leather(3)), encoding="utf-8")
    assert main([command, "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_c06_c09_pins_differ_between_seeds():
    """c06 reports its margins, so a changed family or bound shows in the pin."""
    digests = {argv[-1]: digest for argv, _, digest in CLI_REPORT_BYTES
               if argv[:3] == ["verify", "--only", "c06,c09"]}
    assert set(digests) == {"42", "7"} and digests["42"] != digests["7"]


@pytest.mark.parametrize("argv, sampler, value", [
    (["simulate", "--kind", "cyclic", "--n", "5", "--l", "3", "--samples", "2000"],
     "sample_cyclic_gap", 1),
    # outside the support: gaps of l = 3 points among 6 are at most 4
    (["simulate", "--kind", "cyclic", "--n", "5", "--l", "3", "--samples", "2000"],
     "sample_cyclic_gap", 5),
    (["simulate", "--kind", "plain", "--x", "0.3", "--samples", "2000"],
     "sample_line_gap", 2),
    (["simulate", "--kind", "extended", "--x", "0.3", "--samples", "2000"],
     "sample_line_gap", 1),
    (["simulate", "--kind", "plain", "--x", "0.3", "--samples", "2000"],
     "sample_line_gap", 0),
], ids=["cyclic-1", "cyclic-outside-support", "plain-2", "extended-1", "plain-0"])
def test_simulate_fails_on_samples_off_the_exact_pmf(monkeypatch, capsys, argv,
                                                     sampler, value):
    monkeypatch.setattr(distributions, sampler, lambda *args: [value] * args[-1])
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_c13_and_simulate_fail_on_the_same_biased_draws(monkeypatch, capsys):
    """Plain line gaps at x = 0.5 with cell 1 raised to 5 standard errors
    above its mass x^2, by turning draws of 3 into 1s: c13 names that cell
    alone, and `simulate` exits 1 on the same draws."""
    argv = ["simulate", "--kind", "plain", "--x", "0.5", "--seed", "42",
            "--samples", str(verify.SAMPLER_DRAWS)]
    assert main(argv) == 0
    capsys.readouterr()
    line = distributions.sample_line_gap

    def biased(x, variant, seed, count):
        s = line(x, variant, seed, count)
        if variant == distributions.PLAIN:
            want = round(count * (0.25 + 5 * math.sqrt(0.25 * 0.75 / count)))
            have = int(np.count_nonzero(s == 1))
            assert want > have
            s[np.flatnonzero(s == 3)[:want - have]] = 1
        return s

    monkeypatch.setattr(distributions, "sample_line_gap", biased)
    res = verify.criterion_samplers(verify.RunConfig(seed=42))
    assert not res.passed
    assert [f[:2] for f in res.fields["details"]["failures"]] == [("line_plain", 1)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def assert_usage_error(capsys, argv, error, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["error"] == error
    assert message in report["message"]


@pytest.mark.parametrize("argv, error, message", [
    (["enumerate", "--n", "11", "--method", "brute"], "ValueError", "brute-force cap"),
    (["series", "--which", "tg", "--truncate", "5"], "ValueError", "K must be"),
    (["simulate", "--kind", "cyclic", "--n", "5", "--l", "7"],
     "DistributionError", "need 2 <= l <= n"),
    (["rotations", "--n", "0"], "InstanceError", "n must be >= 1"),
    (["grids", "--diamond", "0"], "PosetError", "n must be >= 1"),
    (["enumerate"], "UsageError", "--in FILE or --n N"),
    (["simulate", "--kind", "dependence", "--samples", "0"],
     "DistributionError", "sample count must be >= 1"),
    (["verify", "--samples", "0"], "UsageError", "--samples must be >= 1"),
    (["simulate", "--kind", "plain", "--samples", "0"],
     "DistributionError", "sample count must be >= 1"),
    (["simulate", "--kind", "cyclic", "--n", "3", "--samples", "-5"],
     "DistributionError", "sample count must be >= 1"),
    (["simulate", "--kind", "asymptotic", "--n", "5", "--samples", "0"],
     "DistributionError", "sample count must be >= 1"),
    (["verify", "--only", "c10,c99"], "UsageError", "unknown check id 'c99'"),
    # each verify case also names a cheap --only, should the check run after all
    (["verify", "--instances", "-5", "--only", "c01"],
     "UsageError", "--instances must be >= 0, got -5"),
    (["verify", "--max-n", "0", "--only", "c01"],
     "UsageError", f"--max-n must be in 2..{BRUTE_FORCE_CAP}, got 0"),
    (["verify", "--max-n", str(BRUTE_FORCE_CAP + 1), "--only", "c01"],
     "UsageError", f"--max-n must be in 2..{BRUTE_FORCE_CAP}"),
    (["verify", "--truncate", str(max(SERIES_MIN_TRUNCATION.values()) - 1), "--only", "c11"],
     "UsageError", f"--truncate must be >= {max(SERIES_MIN_TRUNCATION.values())}"),
    (["verify", "--threads", "0", "--only", "c05"],
     "UsageError", f"--threads must be in 1..{verify.max_threads()}, got 0"),
    # rejected before any pool is made, so no process is started
    (["verify", "--threads", str(verify.max_threads() + 1), "--only", "c05"],
     "UsageError", f"--threads must be in 1..{verify.max_threads()}"),
    # a probe that reaches no cell has tested nothing, so it cannot pass
    (["simulate", "--kind", "asymptotic", "--n", "1", "--samples", "10"],
     "DistributionError", "no cell to test"),
    # a scan window past the cap is refused before its table is built
    (["simulate", "--kind", "plain", "--x", "1e-5"], "DistributionError", "above the cap"),
    (["simulate", "--kind", "extended", "--x", "1e-5"], "DistributionError", "above the cap"),
    (["simulate", "--kind", "dependence", "--x", "1e-5"], "DistributionError", "above the cap"),
    # n + 1 keys per draw past the cap on the keys a round holds, refused
    # before any key block is allocated
    (["simulate", "--kind", "cyclic", "--n", "1048576"],
     "ValueError", "1048577 keys per lane exceed the 1048576 a round holds"),
    # past the side cap, refused before the grid is built or counted
    (["grids", "--diamond", "61"], "PosetError", "n=61 is above the diamond side cap 60"),
])
def test_rejected_arguments_exit_2_with_json_error(capsys, argv, error, message):
    assert_usage_error(capsys, argv, error, message)


@pytest.mark.parametrize("argv", [
    ["random", "--n", str(N_CAP + 1)],
    ["rotations", "--n", str(N_CAP + 1)],
    ["grids", "--n", str(N_CAP + 1)],
    ["enumerate", "--n", str(N_CAP + 1)],
    ["simulate", "--kind", "asymptotic", "--n", str(N_CAP + 1)],
    ["random", "--n", str(2 ** 31)],
])
def test_instances_past_the_size_cap_exit_2_before_any_is_built(monkeypatch, capsys, argv):
    def no_shuffle(*args):
        raise AssertionError("a preference row was drawn")

    monkeypatch.setattr(Xoshiro256StarStar, "shuffle", no_shuffle)
    assert_usage_error(capsys, argv, "InstanceError",
                       f"n={argv[-1]} is above the instance-size cap {N_CAP}")


def test_instance_file_past_the_size_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    rows = [[0]] * (N_CAP + 1)  # the cap is checked before the rows are validated
    path.write_text(json.dumps({"n": N_CAP + 1, "job_prefs": rows, "applicant_prefs": rows}),
                    encoding="utf-8")
    assert_usage_error(capsys, ["enumerate", "--in", str(path)], "InstanceError",
                       f"n={N_CAP + 1} is above the instance-size cap {N_CAP}")


@pytest.mark.parametrize("value", ["two", "", "0", "-1", str(verify.max_threads() + 1)])
def test_bad_thread_count_exits_2(capsys, value):
    argv = ["verify", "--threads", value, "--only", "c05"]
    if value.lstrip("-").isdigit():
        assert_usage_error(capsys, argv, "UsageError",
                           f"--threads must be in 1..{verify.max_threads()}, got {value}")
    else:  # not an integer: argparse refuses it before any command runs
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_thread_count_defaults_to_one(monkeypatch):
    """One worker unless --threads asks for more; SMCENSUS_THREADS is not read."""
    seen = []
    monkeypatch.setenv("SMCENSUS_THREADS", "2")
    monkeypatch.setattr(cli, "run_verify_suite", lambda config, only: seen.append(config) or [])
    assert main(["verify", "--only", "c05"]) == 0
    assert main(["verify", "--threads", str(verify.max_threads()), "--only", "c05"]) == 0
    assert [config.threads for config in seen] == [1, verify.max_threads()]


def test_missing_instance_file_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert_usage_error(capsys, ["enumerate", "--in", str(path)],
                       "UsageError", f"cannot read --in {path}")


def test_malformed_instance_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "job_prefs": [[0, 1], [1, 1]],'
                    ' "applicant_prefs": [[0, 1], [1, 0]]}', encoding="utf-8")
    assert_usage_error(capsys, ["enumerate", "--in", str(path)],
                       "InstanceError", "job_prefs row 1 not a permutation")


@pytest.mark.parametrize("command", ["enumerate", "rotations", "grids"])
def test_instance_file_with_an_unknown_key_exits_2(tmp_path, capsys, command):
    path = tmp_path / "extra.json"
    instance = json.loads(serialize_instance(instance_I2()))
    path.write_text(json.dumps({**instance, "comment": "I2"}), encoding="utf-8")
    assert_usage_error(capsys, [command, "--in", str(path)],
                       "InstanceError", "unknown keys: ['comment']")


@pytest.mark.parametrize("exc", [PosetError("downset count needs more than 5 states"),
                                 FamilyError("family is empty")])
def test_cap_and_family_errors_exit_2(monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(rotations, "build_rotation_poset", fail)
    assert_usage_error(capsys, ["rotations", "--n", "3"], type(exc).__name__, str(exc))


def test_bijection_state_cap_exits_2(monkeypatch, tmp_path, capsys):
    path = tmp_path / "il2.json"
    path.write_text(serialize_instance(irving_leather(2)), encoding="utf-8")
    monkeypatch.setattr(rotations, "STATE_CAP", 9)  # irving_leather(2) has 10
    assert_usage_error(capsys, ["enumerate", "--method", "rotations", "--in", str(path)],
                       "StateCapError", "more than 9 stable matchings")


def test_asymptotic_probe_state_cap_exits_2(monkeypatch, capsys):
    # the pinned probe instance (n = 50, seed 0) has 20 downsets
    argv = ["simulate", "--kind", "asymptotic", "--n", "50", "--samples", "1500"]
    monkeypatch.setattr(rotations, "STATE_CAP", 20)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(rotations, "STATE_CAP", 19)
    assert_usage_error(capsys, argv, "StateCapError", "more than 19 downsets")


QUICK_VERIFY = ["verify", "--seed", "42", "--max-n", "4",
                "--instances", "6", "--samples", "4000", "--truncate", "100000"]


@pytest.fixture(scope="module")
def quick_verify(tmp_path_factory):
    """Exit code and raw report lines of one quick full verify run."""
    path = tmp_path_factory.mktemp("verify") / "full.jsonl"
    code = main([*QUICK_VERIFY, "--out", str(path)])
    return code, path.read_text(encoding="utf-8").splitlines()


@pytest.mark.slow
def test_verify_quick_run_reports_known_failure(quick_verify):
    code, raw = quick_verify
    by_id = {line["check"]: line for line in map(json.loads, raw)}
    assert set(by_id) == {f"c{i:02d}" for i in range(1, 15)}
    failing = {cid for cid, line in by_id.items() if not line["passed"]}
    assert failing == {"c11"}  # the extended series constant, documented
    assert code == 1


@pytest.mark.slow
def test_verify_quick_run_report_bytes(quick_verify):
    # the quick run's report, byte for byte; a change to any value shows here
    text = "".join(line + "\n" for line in quick_verify[1])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "c2c8d4667b3dbcffa52492dc60f483c68084acbdd3586fda4ac21e2b443da74a"


@pytest.mark.slow
def test_verify_fault_injection(capsys):
    code, lines = run_cli(
        capsys, "verify", "--seed", "42", "--max-n", "3",
        "--instances", "4", "--samples", "4000", "--truncate", "100000",
        "--inject-fault", "--only", "c01")
    by_id = {line["check"]: line for line in lines}
    assert not by_id["c01"]["passed"]
    assert code == 1  # from c01 alone, as c11 does not run


def run_only(tmp_path, only):
    path = tmp_path / "only.jsonl"
    code = main([*QUICK_VERIFY, "--only", only, "--out", str(path)])
    return code, path.read_text(encoding="utf-8").splitlines()


def lines_for(lines, ids):
    return [line for line in lines if json.loads(line)["check"] in ids]


@pytest.mark.slow
def test_verify_only_one_check_skips_the_sweep(tmp_path, monkeypatch, quick_verify):
    def no_sweep(config):
        raise AssertionError("c10 does not read the instance sweep")

    monkeypatch.setattr(verify, "run_sweep", no_sweep)
    code, lines = run_only(tmp_path, "c10")
    assert code == 0
    assert lines == lines_for(quick_verify[1], {"c10"})
    assert json.loads(lines[0])["details"]["whitworth_triples"] == 12341


@pytest.mark.slow
def test_verify_only_several_checks(tmp_path, quick_verify):
    code, lines = run_only(tmp_path, "c14,c11,c04")
    assert code == 1  # c11 is the documented failure
    assert [json.loads(line)["check"] for line in lines] == ["c04", "c11", "c14"]
    assert lines == lines_for(quick_verify[1], {"c04", "c11", "c14"})
    details = json.loads(lines[1])["details"]
    for key in ("plain_series", "extended_series"):
        assert details[key]["certified_base"] == math.exp(2 * details[key]["hi"]), key
