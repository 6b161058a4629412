"""Golden CLI output: exit code, stdout, stderr and written files, byte for byte.

Each case runs main in an empty directory with relative paths, and its
digest covers everything the run leaves behind. The README examples are run
as well, with --reps capped at 500 and the library example's replicates cut
from 100_000 to 2_000.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from altseq.cli import main

SIM = ["--reps", "50", "--seed", "3"]

CASES = {
    "offline-lines": ["offline", "--n", "20", "--reps", "50", "--seed", "2"],
    "offline-json": ["offline", "--n", "20", "--reps", "50", "--seed", "2", "--json"],
    "offline-long-json": [
        "offline", "--n", "1000", "--reps", "20", "--seed", "2", "--json"
    ],
    "finite-lines": ["finite", "--n", "20", "--grid", "101"],
    "finite-json": ["finite", "--n", "20", "--grid", "101", "--json"],
    "geometric-lines": ["geometric", "--rho", "0.9", "--grid", "101", "--tol", "1e10"],
    "geometric-json": [
        "geometric", "--rho", "0.9", "--grid", "101", "--tol", "1e10", "--json"
    ],
    "geometric-solve-lines": ["geometric", "--rho", "0.9", "--grid", "101"],
    "geometric-solve-json": ["geometric", "--rho", "0.9", "--grid", "101", "--json"],
    "simulate-rows": ["simulate", "--policy", "greedy", "--n", "20", *SIM],
    "simulate-json": [
        "simulate", "--policy", "geometric-optimal", "--rho", "0.8", *SIM, "--json"
    ],
    "compare-rows": ["compare", "--n", "20", "--grid", "101", *SIM],
    "compare-json": ["compare", "--n", "20", "--grid", "101", *SIM, "--json"],
    "simulate-out-json": [
        "simulate", "--policy", "timid", "--rho", "0.8", *SIM, "--out", "r.json"
    ],
    "simulate-out-csv": [
        "simulate", "--policy", "timid", "--rho", "0.8", *SIM, "--out", "r.csv"
    ],
    "finite-out-json": ["finite", "--n", "10", "--grid", "51", "--out", "r.json"],
    "offline-out-csv": ["offline", "--n", "20", *SIM, "--out", "r.csv"],
    "dump-tables": ["finite", "--n", "3", "--grid", "51", "--dump-tables", "t.csv"],
    "bad-suffix": ["simulate", "--policy", "greedy", "--n", "5", "--out", "r.txt"],
    "two-horizons": ["simulate", "--policy", "greedy", "--n", "10", "--rho", "0.5"],
    "over-budget": ["finite", "--n", "20000", "--grid", "2001"],
    # long rows of threshold rules, which step as lanes; digests recorded on
    # the runner that stepped every observation alone
    "simulate-timid-long-json": [
        "simulate", "--policy", "timid", "--n", "20000", "--reps", "3", "--seed", "3",
        "--json",
    ],
    "simulate-geometric-long-json": [
        "simulate", "--policy", "geometric-optimal", "--rho", "0.9999", "--reps", "16",
        "--seed", "3", "--json",
    ],
    "compare-long-json": [
        "compare", "--n", "10000", "--reps", "20", "--seed", "3", "--json"
    ],
    # stages 1-929 of the grid-101 rule step as lanes
    "simulate-finite-optimal-json": [
        "simulate", "--policy", "finite-optimal", "--n", "1000", "--grid", "101",
        *SIM, "--json",
    ],
    # help and usage text, wrapped at COLUMNS=80
    "help": ["--help"],
    **{f"{c}-help": [c, "--help"]
       for c in ["offline", "geometric", "finite", "simulate", "compare"]},
    "geometric-no-rho": ["geometric"],
    "geometric-unknown-option": ["geometric", "--rho", "0.9", "--n", "5"],
    "simulate-bad-policy": ["simulate", "--policy", "bogus", "--n", "5"],
    "simulate-finite-optimal-no-n": ["simulate", "--policy", "finite-optimal", *SIM],
    "simulate-geometric-optimal-no-rho": [
        "simulate", "--policy", "geometric-optimal", *SIM
    ],
    "unknown-command": ["bogus"],
    "no-command": [],
}

GOLDEN = {
    "offline-lines": "7c14ffb3dceed7380f6061fee077330072e2ee939fd6393c841b75c845ed497f",
    "offline-json": "857bb88ccc5df1dd534a764a4fbd91d1434fde14edf02c7b9c0405aae90575c1",
    "offline-long-json": "f4914588ac9c0062f7f46f63cfed7271377e68ec98e6d65811bd6ac799c734e2",
    "finite-lines": "7519dcdfdf2d1ba0f7f75f9ba7e733cd5152d6e1c4317eaa8f275b0b5b06e0e8",
    "finite-json": "79ab686cf55d87b4875a411946f1ab26a5291a4461c4acbc7d8f98dfbac22af4",
    "geometric-lines": "257d4d2141b9dfacd582de2a0cb8a56c2d01a79f443d05a08a7d87391f457046",
    "geometric-json": "c2be283b760a72c90ed0fd64cdffc9341c487983e143ed68e52923aa0e5813fb",
    "geometric-solve-lines": "ed74a2f84c3e4835a84763efe1d5c57b5386f7c77db45f5b071fbb09aa75c82f",
    "geometric-solve-json": "9591de0175d05514143d233eb888da0c18eea17844729839e541a5635baae36e",
    "simulate-rows": "65fb3cf2bc6649b106256fc866a4d7b7a79915b05f4d73fbc5663ae99a2cbe4f",
    "simulate-json": "46f06ad055851fb32a3b2918e95623e4b9b1b5631715b0e12a78d1013ba17c4e",
    "compare-rows": "5c396bb7f289e90bc0cc686eaa3c0f38caffa7c7f78bcc1aa9d33366b10bbb95",
    "compare-json": "404cdb2cb6e30bef868d71cab7adb3c6005435f5396c9836835a3ec551e76bf3",
    "simulate-out-json": "f916f32cf1e247632337ac2a1dd9976695a0199ffdb52af0f0e26b62e43124b4",
    "simulate-out-csv": "f8f41ecdcc90bfe2f5aaad6ece27126de7f4878282d5da0e0fa0e334395a6bd0",
    "finite-out-json": "0424cdcc009b7cd867ac490589eefb5b6828fb1840e480ed50636e0d5cebfff2",
    "offline-out-csv": "ee7bbf88db2000c8dfc41006bcf8a8b0f80b9778fb3225fbe517d0f6c7976129",
    "dump-tables": "b54e2cf4c7974eef39258daafbbb2ebcbc57dc96572fd4a446819a89e9ea6f35",
    "bad-suffix": "63c7352bb8fd73fd159cfdd8745a2b2324e7f325209058a8e1082ccc765355af",
    "two-horizons": "b1ca6473f5ac7c308685e22d225f6f34f25c1c6618098a5b3365fa8297194491",
    "over-budget": "6aa271a22784cfe24b2001aeccb9bd58cb23d7ff744aa3a7db6dc3876de07396",
    "simulate-timid-long-json": "9e1c339888c0058eed1610862bd955d32230ab758c8b5cb0288f889efc11d2f9",
    "simulate-geometric-long-json": "b6760ddeceda883b13977cd9ca182ac5d5f1dea462770952e717babf8aca3d36",
    "compare-long-json": "f9e89611d392e9370e3d6de829db7429c7868ee302500a5796cea3db59974018",
    "simulate-finite-optimal-json": "86cbff6ae66116f3d97f845c78d30b25815f25c8427149ce9e70380ba7537374",
    "help": "4d991b3d5decf0acf93622ce8e3770772058b243c29769bf2260e2ef7c4e48bf",
    "offline-help": "ed3374200073b33f5718e321178d046b63ee8c072383850e60f1bcb27bdc6926",
    "geometric-help": "05c259878f7585a8e907b186d3f4b69589e8984dca5d3b2dae85fc14e2273d82",
    "finite-help": "fcf11ea8e8b52cb72adead056bd995089995d1173b98b2a958b6f262750477aa",
    "simulate-help": "2b6a38d2db31225e8af239531586b8526ea831d13a4318df2c5a5b8cb205f078",
    "compare-help": "5c44093ddf87e844f9b36d9d41bc3ce713a13bcc296f256739bcc58e14d83796",
    "geometric-no-rho": "13a1833438fb3d2c0a516718f75e16d4d95c935b9997159acdf6bdb3eaf5b1eb",
    "geometric-unknown-option": "c99c45b7e6d7fe63a20101c2dd7777db72ce02453bd4be11c61a9ed04c67b1ce",
    "simulate-bad-policy": "ef8a85680b75ce60d0729585f80d69a61d2c9e38ff1e993c8702c3113ea864b7",
    "simulate-finite-optimal-no-n": "3716a0a09cf0b96391a53430322d286e9b3900cfc3c9f33921d5d942323ebfb8",
    "simulate-geometric-optimal-no-rho": "ff70a8ebd862a83d1074dbe4a60cb258e97996cf4ccb2b3aa847909625ab20fe",
    "unknown-command": "b89b3136b22657f46b19b937b6f0a82bfaf93e6f82dc638cb29399e6b6a7edbd",
    "no-command": "60c4e9a39280c75b6b0b23d7ad391354fe4351ab193c1b91a35c1cb998fb6b99",
}


def run_digest(argv, capsys) -> str:
    """sha256 of the exit code, stdout, stderr and every file written."""
    code = main(argv)
    out, err = capsys.readouterr()
    parts = [str(code), out, err]
    for path in sorted(Path().iterdir()):
        parts += [path.name, path.read_text()]
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden_digest(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_digest(CASES[case], capsys) == GOLDEN[case]


def readme_commands() -> list[str]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("altseq ")]


def test_readme_lists_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    line = re.sub(r"--reps (\d+)", lambda m: f"--reps {min(int(m[1]), 500)}", line)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_library_example_gives_its_documented_values():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block.replace("100_000", "2_000"), scope)
    # the digits the comments print
    assert f"{scope['grid'].values[0]:.4f}" == "6.0485"
    assert scope["grid"].iterations == 22
    assert f"{scope['grid'].xi_estimate:.5f}" == "0.24687"
    assert f"{scope['sol'].value_table[0, 0]:.2f}" == "58.84"
