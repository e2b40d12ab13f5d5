"""The byte contract: every invocation of tests/byte_manifest.py's matrix
writes the bytes blessed in tests/golden/manifest.json."""

import pytest

import byte_manifest

BLESS = "python tests/byte_manifest.py --bless"  # with src on PYTHONPATH


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    return byte_manifest.replay(tmp_path_factory.mktemp("manifest"))


def test_the_manifest_covers_the_matrix(replayed):
    blessed = byte_manifest.load()
    assert [entry["argv"] for entry in replayed] == [entry["argv"] for entry in blessed]
    assert {entry["exit"] for entry in blessed} == {0, 2, 3, 4}


def test_every_output_matches_with_the_oracle_values_masked(replayed):
    # the hashes as written are not compared here: the oracle's SVD column
    # may round differently under another numpy or BLAS, and a change to
    # it may move them by rounding. byte_manifest.py lists those moves
    moved = byte_manifest.moved(byte_manifest.load(), replayed, 1)
    assert not moved, f"if these moved on purpose, re-bless with `{BLESS}`:\n" + \
        "\n".join(moved)


@pytest.mark.parametrize("text, fmt, want", [
    ('{\n  "oracle": {\n    "deviation": 1e-10,\n    "table": {\n      "r": 0.5\n'
     '    },\n    "ok": true\n  }\n}\n', "json",
     '{\n  "oracle": {\n    "deviation": "~",\n    "table": {\n      "r": "~"\n'
     '    },\n    "ok": true\n  }\n}\n'),
    ('{\n  "oracle": {\n    "deviation": 1e-10\n  }\n}', "json",
     '{\n  "oracle": {\n    "deviation": "~"\n  }\n}'),
    ('{"oracle": {"deviation": 1e-10}}', "json", '{"oracle": {"deviation": 1e-10}}'),
    ("a,oracle_deviation,oracle_ok\r\n1.0,2e-11,True\r\n", "csv",
     "a,oracle_deviation,oracle_ok\r\n1.0,~,True\r\n"),
    ("name,value\r\noracle deviation,1e-10\r\nP_0,0.5\r\n", "csv",
     "name,value\r\noracle deviation,~\r\nP_0,0.5\r\n"),
    ("a\n1\n", "csv", "a\n1\n"),
    ("check oracle deviation: PASS (value 1.05428e-10, expected 1e-08, max)\n"
     "check P_0: PASS (value 0.997487, expected 0.9975, abs)\n", "text",
     "check oracle deviation: PASS (value ~, expected 1e-08, max)\n"
     "check P_0: PASS (value 0.997487, expected 0.9975, abs)\n"),
    ("oracle deviation 2.220e-16 exceeds tolerance 1.000e-16\n", "text",
     "oracle deviation ~ exceeds tolerance 1.000e-16\n"),
    ("oracle deviation beyond tolerance in 9 of 9 rows\n", "text",
     "oracle deviation beyond tolerance in 9 of 9 rows\n"),
], ids=["json-file", "json-stdout", "json-other-layout", "csv-sweep", "csv-check",
        "csv-other-layout", "check-text", "run-stderr", "sweep-stderr"])
def test_the_mask_covers_only_oracle_values(text, fmt, want):
    # a layout brisq does not write is hashed as it is, masked or not
    assert byte_manifest.masked(text, fmt) == want


def test_a_moved_value_is_reported_with_its_ulp_distance():
    assert byte_manifest.value_moves("x: 0.1,\n", "x: 0.10000000000000002,\n") == \
        ["  0.1 -> 0.10000000000000002 (1 ulp)"]
    assert byte_manifest.value_moves("x: -0.0\n", "x: 0.0\n") == ["  -0.0 -> 0.0 (0 ulp)"]
    assert byte_manifest.value_moves("a 1\n", "b 1\n")[-2:] == ["-a 1", "+b 1"]
