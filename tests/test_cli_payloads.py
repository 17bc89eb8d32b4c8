"""Pinned payloads of every CLI command on the shipped sample graphs.

Each command runs once at a fixed seed and a small replica count, and its
report is hashed after dropping what differs between runs of the same code:
the timestamp, the file paths in the config and the runtime_seconds lines.
So a change that means to leave the CLI contract alone (a deletion, say) can
show that no payload moved, down to the last bit of every float.  A change
that moves a payload on purpose updates its digest and says why; run this
file as a script to print the current ones.
"""

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from loopsoup.cli import _COMMANDS, main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_graphs"
NETWORKS = {"two_point.net": [[0, 2], [2, 0]],
            "triangle.net": [[0, 2, 1], [1, 0, 2], [2, 1, 0]]}
PATH_KEYS = ("graph", "network", "out")

# label -> argv, with sample graphs and networks named by file
RUNS = {
    "kernel": ("kernel", "--graph", "triangle.json"),
    "sample": ("sample", "--graph", "path3.json", "--alpha", "4", "--seed", "1"),
    "occupation": ("occupation", "--graph", "two_point.json", "--replicas", "2000",
                   "--seed", "2"),
    "jumps": ("jumps", "--graph", "triangle.json", "--seed", "5", "--sampler", "wilson"),
    "exact-network": ("exact-network", "--graph", "two_point.json",
                      "--network", "two_point.net"),
    "best-count": ("best-count", "--graph", "triangle.json", "--network", "triangle.net"),
    "mu-network": ("mu-network", "--graph", "triangle.json", "--network", "triangle.net"),
    "convolution-check": ("convolution-check", "--graph", "two_point.json"),
    "homology-dist": ("homology-dist", "--graph", "triangle.json", "--alpha", "0.5"),
    "jacobian": ("jacobian", "--graph", "triangle.json"),
    "isomorphism": ("isomorphism", "--graph", "two_point.json", "--replicas", "2000",
                    "--seed", "1"),
    "ray-knight": ("ray-knight", "--graph", "path3.json", "--x0", "a",
                   "--replicas", "2000", "--seed", "1"),
    "moments": ("moments", "--graph", "triangle.json", "--edges", "a:b,b:c",
                "--points", "a", "--replicas", "2000", "--seed", "1"),
    "det-identity": ("det-identity", "--graph", "triangle.json", "--replicas", "2000",
                     "--seed", "1"),
    "genfun": ("genfun", "--graph", "triangle.json", "--edge", "a:b", "--z", "0.5,0.1",
               "--alpha", "2"),
    "maxflow": ("maxflow", "--graph", "triangle.json", "--network", "triangle.net",
                "--sources", "a", "--sinks", "b,c"),
    "verify-all": ("verify-all", "--replicas", "2000", "--seed", "1"),
    "occupation-csv": ("occupation", "--graph", "two_point.json", "--replicas", "2000",
                       "--seed", "2", "--format", "csv"),
    "kernel-csv": ("kernel", "--graph", "triangle.json", "--format", "csv"),
}

# label -> (exit status, SHA-256 of the stripped payload)
PAYLOADS = {
    "kernel": (0, "76e64b7381fae84c3fd59b79b3fdd6a8bb71b5bc7dc17049d33ad12f3b76f688"),
    "sample": (0, "de252c83231d2d9d8965e05d852cc4ef8d8c0e3450cc6f5bda326403546396be"),
    "occupation": (0, "040fbb8ec113b8e060f9dfadc052b4059f10afb0ac06baa809496b9822b697d4"),
    "jumps": (0, "809a79e83a554ef19476c5dc4fdc4fe1e08042a126220cff357774902520b37f"),
    "exact-network": (0, "2278a50450ad5557ad1e4fc7c673f5ceccd4cfedf366f79f5d134bd6ff800281"),
    "best-count": (0, "8497163d707c7a21dccdad9bb9b986aef9fec627b3e4c42d38c7332b37b7afd3"),
    "mu-network": (0, "3a61ec64e61c6465509cfbd7367519ce70049f5e75b6d106e2f27c61e91e28b6"),
    "convolution-check": (0, "fdbc2070b25d53adad9fa263a085b451ec42ec53e5166ae7af1b71fe17de7767"),
    "homology-dist": (0, "059e2e35bdbf94acbf7599ff475d8ad2cedf9f7ee9229eb8990807e7d8ac7932"),
    "jacobian": (0, "571209ce4084cd9b8145d0367bef54050f57307678caa709b8af4ae321e53019"),
    "isomorphism": (0, "301066d884d31c3c70a0d70eef6483e4a9e49134ef116c26049c1c3342d5f21e"),
    "ray-knight": (0, "bc50de0c5324e0703cb6a8c1b5ec2aedca99ed105556dada6ff1dfde1c731259"),
    "moments": (0, "b6c9ede767e79aa950acf79ca1d32f9bb822b84984e7f2a0ef4c05ce2c60aba9"),
    "det-identity": (0, "097e9a4efb863b4b01b083e7a6d461bb7b6f1095e6dcc84bf71ac0b9b0eec1d6"),
    "genfun": (0, "2b43490264c40b29a7ffa06f669e3c39b2f7e4dfa8679062f6f77d7d7372fb97"),
    "maxflow": (0, "871f534dff2e043ed5e881dece94f5f2fc1676a1e510d4f8afaa1e6480e1d981"),
    "verify-all": (2, "d3eda0efc80e333c7ad16dd00e213d9331bce0179a78cb1fa3d00d1bfd100bb9"),
    "occupation-csv": (0, "1da0cf838b99bafa879beba5beb5a7cc5dbc49b7ecbf545669e0d9cf28d446d2"),
    "kernel-csv": (0, "abb24efc89acb05f988143dadb6c32ddde39da4de63a64a043dffcb6a0f03f45"),
}


def _stripped(text: str, fmt: str) -> str:
    """The payload without its timestamp, config paths and runtime lines."""
    if fmt == "csv":
        rows = [row for row in csv.reader(io.StringIO(text))
                if "runtime_seconds" not in row[1:2]]
        return repr(rows)
    payload = json.loads(text)
    del payload["timestamp"]
    for key in PATH_KEYS:
        payload["config"].pop(key, None)
    for report in payload.get("reports", ()):
        report["lines"] = [line for line in report["lines"]
                           if line["statistic"] != "runtime_seconds"]
    return json.dumps(payload, sort_keys=True)


def _run(label: str, tmp: pathlib.Path) -> tuple:
    """(exit status, report text, format) of one run, its files written under tmp."""
    for name, counts in NETWORKS.items():
        (tmp / name).write_text(json.dumps({"counts": counts}))
    argv = [str(SAMPLES / a) if a.endswith(".json") else
            str(tmp / a) if a.endswith(".net") else a for a in RUNS[label]]
    out = tmp / f"{label}.out"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    return code, out.read_text(), "csv" if "csv" in argv else "json"


def payload_digest(label: str, tmp: pathlib.Path) -> tuple:
    """(exit status, digest) of one run, its files written under tmp."""
    code, text, fmt = _run(label, tmp)
    return code, hashlib.sha256(_stripped(text, fmt).encode()).hexdigest()


def test_every_command_is_pinned():
    assert {argv[0] for argv in RUNS.values()} == set(_COMMANDS)
    assert set(PAYLOADS) == set(RUNS)


@pytest.mark.parametrize("label", list(RUNS))
def test_cli_payload(label, tmp_path):
    assert payload_digest(label, tmp_path) == PAYLOADS[label]


@pytest.mark.parametrize("label", [label for label, argv in RUNS.items() if "csv" not in argv])
def test_cli_report_text_is_canonical(label, tmp_path):
    # the digests re-serialize the payload, so they cannot see how it was
    # written; the report itself must read as json.dumps writes it
    _, text, _ = _run(label, tmp_path)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for label in RUNS:
            code, digest = payload_digest(label, pathlib.Path(tmp))
            print(f'    "{label}": ({code}, "{digest}"),')
