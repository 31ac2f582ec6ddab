"""The sealed experiments' stdout, pinned byte for byte.

Figures 3-7, Table 1, Section 5 and the X5/X8/X9/X10 extensions are
pure functions of their seed, so ``prebake-bench <experiment> -r 3
-s 42`` prints the same bytes on every run. Each digest below is the
SHA-256 of that stdout. Any change to these numbers, in either
direction, fails here; a deliberate one is re-sealed by updating the
digest with a CHANGES.md line that explains the delta. If a numpy or
interpreter release moves a bit, report that as a defect; the pin
stays exact.

    PYTHONPATH=src python -m pytest tests/test_sealed_stdout.py
"""

import hashlib

import pytest

from repro.bench.cli import main

SEALED_STDOUT_SHA256 = {
    "fig3": "836790df58a95dc21906c90654a96c80c40b9bba43a72f10230ac877335aa7e7",
    "fig4": "9b969c6dd2c02c6d4732338453edfea5cc37cada3209ec65ba49e14b9c7c4589",
    "fig5": "079f19479a38fa083be312212ada5321f861171351e76c42e9dcd8beffda6bc8",
    "fig6": "e486023f35eabeaaba290691e4ccc001f949d14b0241b198d3fcbfe2a037a6cf",
    "table1":
        "69ea33fec3dadbfc8f648df23bc17bbb12f8dfb470f39b3dcfa757a97ce1ee26",
    "fig7": "b3f097671a70b7745583ef9b89c2236ff7bd389f4206206fe9a782911557b998",
    "sec5": "bf0815ceb93e153ed4924f5a9ff6b669686178e6e70c1af929a3075c104be30e",
    "chaos":
        "1ae7fac91365d87fdc16b1b12c7c909d9c06746974dfb74b38dede389a394eca",
    "shard-chaos":
        "2384026871ffab3fbeca0ad9e7116a1cb8f9c3d203227d8d58550efa47060938",
    "incident":
        "169a795e954a9062c0300ad139e16b93b5f86c0117b4dbc5cb04923468ca1c44",
    "restore-sweep":
        "7abb05207d2f5f9e0b3be027b2947b16512bfdc7fe8f704c23faf83fccfeb43d",
    "restore-pipeline":
        "e0fb0c509c930756c87c8dbe5e340d53ffa3f6213948502755e547a8f4897483",
}


@pytest.mark.parametrize("experiment", sorted(SEALED_STDOUT_SHA256))
def test_stdout_matches_the_sealed_digest(capsys, experiment):
    assert main([experiment, "-r", "3", "-s", "42"]) == 0
    stdout = capsys.readouterr().out
    assert (hashlib.sha256(stdout.encode()).hexdigest()
            == SEALED_STDOUT_SHA256[experiment])
