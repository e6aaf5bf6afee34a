"""The CLI contract tool (`tools/cli_contract.py`): its commands run through
`cli.main` as listed, and its comparison counts print units exactly."""

import importlib.util
import json
import os
import shlex
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "cli_contract.py")


@pytest.fixture(scope="module")
def contract():
    spec = importlib.util.spec_from_file_location("cli_contract", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sidecar_records_the_argv_main_parsed(contract, tmp_path, monkeypatch):
    # an in-process call must not record the host process's command line
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["host", "--unrelated"])
    (tmp_path / "func.json").write_text(contract.FUNCTION_FILE)
    for command in contract.DATA_COMMANDS:
        argv = shlex.split(command)
        assert contract.run(command)[0] == 0, command
        meta = json.loads((tmp_path / f"{argv[-1]}.meta.json").read_text())
        assert meta["argv"] == argv
    for command in contract.FAILING_COMMANDS:
        # the under-resolved witness and Gram matrix are exit 3, the usage errors exit 2
        expected = 3 if command.startswith("tmw") else 2
        assert contract.run(command)[0] == expected, command
        assert not (tmp_path / shlex.split(command)[-1]).exists()


#: Commands without a closed form whose --func has sup|f| = 1: a CSV and a JSON file.
COMMAND = "convergence --func poly:1 --seq harmonic --nterms 1 --out t.csv"
JSON_COMMAND = "expand --func poly:1 --seq harmonic --nterms 1 --out t.json"


def verdict(contract, before: str, after: str, command: str = COMMAND) -> bool:
    name = shlex.split(command)[-1]
    if name.endswith(".csv"):
        saved, here = f"n,sup\n0,{before}\n", f"n,sup\n0,{after}\n"
    else:
        saved, here = f'{{"x": [{before}]}}\n', f'{{"x": [{after}]}}\n'
    return contract.compare(command, (0, here.encode()), (0, saved.encode()))[0]


@pytest.mark.parametrize("command", [COMMAND, JSON_COMMAND], ids=["csv", "json"])
def test_one_print_unit_passes_and_two_fail(contract, command):
    # in binary the one-unit move 15.8508747085 -> ...086 reads 1.0000000827 units
    assert verdict(contract, "15.8508747085", "15.8508747086", command)
    assert verdict(contract, "15.8508747085", "15.8508747084", command)
    assert not verdict(contract, "15.8508747085", "15.8508747087", command)
    # the unit is that of the larger cell: 1e-10 here, not 1e-11
    assert verdict(contract, "9.99999999991", "10", command)
    assert not verdict(contract, "9.99999999989", "10", command)


def test_scale_allowance_is_unchanged(contract):
    # far below the print unit of sup|f| = 1, a cell may move by 1e-14
    assert verdict(contract, "1e-20", "5e-15")
    assert verdict(contract, "-4e-15", "4e-15")
    assert not verdict(contract, "1e-20", "2e-14")


def test_non_numeric_change_fails(contract):
    assert not verdict(contract, "1", "nan")
