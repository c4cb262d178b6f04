"""The fixture generator: numpy's PCG64 stream reproduced in Python, and the documents it writes."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from treelin.cli import main
from treelin.documents import canonical_bytes, problem_from_doc, problem_to_doc
from treelin.fixture import Uniform

# 1500 small seeds, 1500 random 31-bit ones, and seeds of one to seven
# 32-bit words: numpy's seeding mixes the words past the fourth (from 2**128
# on) into the pool one at a time
_WIDE = (2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**127 + 5, 10**30,
         2**128 + 5, 2**160 - 1, 3**150, 2**200 + 12345)
SEEDS = (list(range(1500)) + [random.Random(20261019).randrange(2**31) for _ in range(1500)]
         + list(_WIDE))

# sha256 of the canonical bytes, as numpy.random.default_rng wrote them
DIGESTS = {
    "germ --n 1 --degree-f 4 --trunc 8 --seed 0":
        "f18ec5802b7040213c300c335b32390cfb32301e44b54702cad7507c15d79f71",
    "germ --n 2 --degree-f 3 --trunc 8 --seed 1":
        "9779edfc0865c33dcea217b5113a0a7de4bae71f4355e7ca3a3813f2b6b7b298",
    "field --n 1 --degree-f 5 --trunc 10 --seed 7":
        "ec79294bebc202916652093ad9f997d248b7af0f075c03617587161efc47564d",
    "field --n 2 --degree-f 3 --trunc 12 --seed 1":
        "b6e9ac17398628a05fcaaeae134fb04505ffb04736716a6b68ac4496ff570fc7",
    "field --n 3 --degree-f 3 --trunc 6 --seed 4294967296":
        "19a2d2ab050d2f84571dd0c173af757d9f7fea256bce1258d0558bad0753c826",
    "germ --n 3 --degree-f 3 --trunc 6 --seed 18446744073709551619":
        "8618c4dc5f46f8e090a3a02cff958da4adf7e75e52fd410065b98e8fda7344f0",
    "germ --n 2 --degree-f 4 --trunc 6 --seed 340282366920938463463374607431768211461":
        "14064b33462faf0293b9d83bafa24c0499d1748ab7e136cc0b6f95734b6e0475",
}


def test_draws_are_numpys_bit_for_bit():
    for seed in SEEDS:
        ours, theirs = Uniform(seed), np.random.default_rng(seed)
        for k in range(60):
            low, high = ((0.05, 1.0), (0.0, 2.0 * np.pi), (-3.5, 1e-3))[k % 3]
            a, b = ours.uniform(low, high), theirs.uniform(low, high)
            assert a.hex() == float(b).hex(), (seed, k)


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_fixture_bytes_are_pinned(argv, capsys):
    assert main(["fixture", *argv.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]


def test_no_coefficient_above_trunc_is_drawn(tmp_path, capsys):
    # the draws above --trunc came last and were dropped: 150 takes as long as 4
    outputs = []
    for degree_f in (4, 150):
        assert main(["fixture", "germ", "--n", "3", "--degree-f", str(degree_f),
                     "--trunc", "4", "--seed", "1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == (
        "e29ad4acb5cb2580834f87b3d3ad5de7337dd895f69f3b14fd4f0d81e037277a")


def test_fixture_documents_are_the_documents_of_their_problems(capsys):
    # the fixture writes plain data; read back as a problem object and
    # written again, its bytes are the same, so the two layouts agree
    for kind in ("germ", "field"):
        for n in (1, 2, 3):
            for degree_f in (2, 3, 5):
                for trunc in (0, 1, 2, 4, 8):
                    for seed in (0, 1, 2**64 + 3):
                        argv = [kind, "--n", str(n), "--degree-f", str(degree_f),
                                "--trunc", str(trunc), "--seed", str(seed)]
                        assert main(["fixture", *argv]) == 0
                        b = capsys.readouterr().out.encode()
                        doc = json.loads(b)
                        again = canonical_bytes(problem_to_doc(problem_from_doc(doc),
                                                               doc["options"]))
                        assert b == again, argv
