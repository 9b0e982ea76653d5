"""A seeded slice of the byte-identity sweep; tests/sweep.py runs all of it."""

import random

import sweep

FILES = sweep.inputs()


def test_digest_file_lists_every_call():
    argvs = sweep.calls(FILES)
    library = [label for label, _op, _S in sweep.library_calls(FILES)]
    assert list(sweep.read_digests()) == [" ".join(argv) for argv in argvs] + library


def test_sweep_slice_matches_digests():
    argvs = random.Random(12).sample(sweep.calls(FILES), 600)
    assert sweep.mismatches(sweep.run(argvs, FILES)) == []


def test_library_slice_matches_digests():
    calls = random.Random(12).sample(sweep.library_calls(FILES), 40)
    assert sweep.mismatches(sweep.run_library(calls)) == []
