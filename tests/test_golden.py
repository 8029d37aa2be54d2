"""Byte-identity goldens: the sha256 of the files the CLI writes for the
bundled tunnel-exit catalogs, and of what ``diff`` prints about them.

Nothing else pins output across versions (criterion 10 compares two hash
seeds of one version).  A change of these digests is a change of the
program's output and must be deliberate.
"""

from __future__ import annotations

import hashlib

import pytest

from riskstruct.catalogs import catalog_path
from riskstruct.cli import main

# Recorded from the tree of commit f5ed01b; the same under PYTHONHASHSEED 0 and 7.
GOLDEN = {
    "tunnel-exit-r2": {
        "build": "75d29f7242480495b63d07b0545c86de8f887347a61b953d260411a3c03a5dd1",
        "reduce": "82cd5e91ed11aee18e3744e4fad5b7c37a946340948e0efc830042c6e3433366",
        "export-dot": "8d51c8e8c3a6c97b0f9050dbfaaa9c122d2656f4dbe89480e3228290aaef78f4",
    },
    "tunnel-exit-r3": {
        "build": "b20cec7fad2dfa5bdfe0288e100539895df7bf7fc0890e22b92da8c68d82750b",
        "reduce": "68971e088f88aa59019e3eba4f82d7e0c674ceac863cbcf14304bf382b8ddd03",
        "export-dot": "473562c6a2008c288412a45b2716bf128a5f50f02c8ab319abfba281065ba0f8",
    },
}


def _outputs(name: str, tmp_path) -> dict[str, str]:
    model = tmp_path / "model.json"
    reduced = tmp_path / "reduced.json"
    dot = tmp_path / "model.dot"
    drops = str(catalog_path("tunnel-exit-r2-drops"))
    assert main(["build", str(catalog_path(name)), "-o", str(model)]) == 0
    assert main(
        ["reduce", str(model), "--equiv", "m", "--require-equal-rp",
         "--drop", drops, "--collapse-chains", "-o", str(reduced)]
    ) == 0
    assert main(["export-dot", str(model), "-o", str(dot)]) == 0
    return {
        command: hashlib.sha256(path.read_bytes()).hexdigest()
        for command, path in (("build", model), ("reduce", reduced), ("export-dot", dot))
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_digests(name, tmp_path):
    assert _outputs(name, tmp_path) == GOLDEN[name]


# Recorded from the tree of commit c0234ce: ``diff`` of the r2 model against
# the r3 model, and of the r2 ``--equiv m`` quotient against the r2 model.
DIFF_GOLDEN = {
    "r2-r3": "6122b74a0e0abd5032ce1903a4dc11a7384375792dfc125f531635b7e8455608",
    "r2-quotient-r2": "d85a2b6a61944594267ea78efbbbdd2b6bfdc0ddfd47ac18b1beb837b3fb54c5",
}


def test_diff_output_digests(tmp_path, capsys):
    r2, r3, quotient = (tmp_path / f"{n}.json" for n in ("r2", "r3", "quotient"))
    assert main(["build", str(catalog_path("tunnel-exit-r2")), "-o", str(r2)]) == 0
    assert main(["build", str(catalog_path("tunnel-exit-r3")), "-o", str(r3)]) == 0
    assert main(["reduce", str(r2), "--equiv", "m", "-o", str(quotient)]) == 0
    capsys.readouterr()
    digests = {}
    for name, a, b in (("r2-r3", r2, r3), ("r2-quotient-r2", quotient, r2)):
        assert main(["diff", str(a), str(b)]) == 3
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == DIFF_GOLDEN
