"""Byte pins for the CLI.

Each README command runs in-process, and the sha256 of its exit code, stdout,
stderr and sweep CSV must match the digest recorded here.  `verify all` runs at
2 instances and `sweep` at 40 so that the module stays fast.  A change that
moves any output byte fails here; if the change is meant, re-record the digest
and say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from teamcomp.cli import main

# The spec file of the README's "Spec file format" section.
README_SPEC = '{"T": 2, "P": [["1", "0", "0"], ["0", "0.5", "1/3"], ["0", "0", "0"]], "U": "UE"}'

PINS = {
    "solve game.json":
        "9f971c5a1a1bd59b19c0209aaf672d6571b2ed80e72a08ed7a234f366a472f5c",
    "solve --example card":
        "f369da884e3f08f80b256140d81e0b08bc09bc98b44719fdd8191d15d9c50bfd",
    "solve --example ex3 --utility UM --full":
        "b6c87347e0e682c02a72223040784b8092a2b6a9e7b6b730671c2ed1c127f22e",
    "best-response --example ex1 --team 1 --strategy uniform":
        "06ced47b8b6ac8cbc29ae262b26a331c6662f4086a399f50857b7a2ab0d76f88",
    "best-response --example ex1 --team 1 --strategy equilibrium":
        "407de3e796817a64a68d60bb2b074b60365f3a4ad9eb308d0a7e22f944c815e7",
    "classify --example ex2":
        "4f098b62bb0406d82a3fef7e5b435378ac5e3437ba8af6af0d0b6a1ee5757622",
    "abandon-delta --example ex3 --utility UM --team 1 --players 4":
        "51c28190c28a407b68e3bb543615483a87b71324dd2f12c997ff6c55bf38282a",
    "gamma --C 3 --a 0 --b 0":
        "844e2389de08fff7211a22825a057c4eea0b0b5a1d373342d103bf1679051a06",
    "verify all --seed 0 --instances 2":
        "d7b0394148cc56a3547021a8cda612bd6c2be67012100cc0c38ec534a8e6a32e",
    "verify theorem4 --T 4 --utility UE":
        "25276814db8202df62a972147722f56f3e695a39c5286d2391fc25742f623292",
    "verify theorem4 --T 4 --utility UM":
        "643675926712420f51fdff3a06bc89173405ff20667fedcec87666b3c6be815e",
    "simulate --example card --samples 100000 --seed 42":
        "ecd2cd16c38237439f41e68b99dd025c7359ca3e65d7fa804c7a7e10dd5d1f2b",
    "sweep --seed 0 --instances 40 --utility UM --out sweep.csv":
        "b8c66165d1afc203799a891f6adb2900fae6be9a015abf606ad7a5fd4fc09be9",
    "solve --example ex4:3 --budget 10":
        "8b28640c18ec7a2427be2aeb540bf91393bf7a4aabe441089c1e058178833dea",
}


def run_digest(command: str, capsys, workdir: Path) -> str:
    """Run ``teamcomp <command>`` in ``workdir`` and digest everything it wrote."""
    (workdir / "game.json").write_text(README_SPEC)
    code = main(command.split())
    captured = capsys.readouterr()
    csv = workdir / "sweep.csv"
    digest = hashlib.sha256(f"{code}\n".encode())
    for part in (captured.out.encode(), captured.err.encode(), csv.read_bytes() if csv.exists() else b""):
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("command", list(PINS))
def test_output_bytes_pinned(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_digest(command, capsys, tmp_path) == PINS[command]


# The theorem-4 ladders repeat Team 2's columns, so most of their classes are
# type copies that share one row of values and one stage game.
LADDER_PINS = {
    "solve --example ex4:3 --full":
        "e5bcbab2a9c0ae87c632e66691bbdb297643c5cdf52e45a7b78d76566d393926",
    "best-response --example ex4:4 --team 2 --strategy equilibrium":
        "f70a6023a4703a4dbc5600ff4a47eddedbb56ac7e83ac33bba4af1129e6b9b1c",
    "best-response --example ex5:4 --team 1 --strategy uniform":
        "0550d29eddb90bb214377af0d69f79bc6714f6faaae0c0afd54074ca1dc2972f",
    "simulate --example ex4:3 --samples 20000 --seed 1":
        "7788243bea826ee7ddd365e636f31d55105e493d9fc19ebac0ece2b9fb37a2cc",
}


@pytest.mark.parametrize("command", list(LADDER_PINS))
def test_ladder_output_bytes_pinned(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_digest(command, capsys, tmp_path) == LADDER_PINS[command]
