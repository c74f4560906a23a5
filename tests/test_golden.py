"""Byte-identity of the CLI's outputs on the bundled data.

Each invocation below runs in an empty working directory, writing any
files under `out/`; the test compares the sha256 of its stdout and of
every file it wrote with the digests recorded in GOLDEN.

After a deliberate output change, re-record the digests: run
`PYTHONPATH=src python tests/test_golden.py` from the repository root,
paste the mapping it prints over GOLDEN, and name the change in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from techknee.cli import main

ROOT = Path(__file__).resolve().parents[1]
SWEEP_CONFIG = str(ROOT / "bench" / "sweep_13k.json")

INVOCATIONS = {
    "reproduce": ["reproduce"],
    "reproduce --json": ["reproduce", "--json"],
    "reproduce --out": ["reproduce", "--out", "out"],
    "case audio": ["case", "audio"],
    "case video": ["case", "video"],
    "case audio --json": ["case", "audio", "--json"],
    "case video --json": ["case", "video", "--json"],
    "case audio --out": ["case", "audio", "--out", "out"],
    "case video --out": ["case", "video", "--out", "out"],
    "case audio --scenario": ["case", "audio", "--scenario", "mail_cassette|song|raw_bits|fitted:1995-|0.1"],
    "case video --scenario": ["case", "video", "--scenario", "mail_dvd|sd_movie|units:90|fitted:1990-2005|0.1"],
    "sweep 13k": ["sweep", "--config", SWEEP_CONFIG, "--out", "out"],
}

GOLDEN: dict[str, dict[str, str]] = {
    'reproduce': {
        'stdout': 'd27e00f6f13d8515b242d807aae183937991e18401dc501bf53e1d71f366740b',
    },
    'reproduce --json': {
        'stdout': 'bbe236ded50622861d8340faa4243fa27e35586cceec454a032abadd46250feb',
    },
    'reproduce --out': {
        'stdout': 'd27e00f6f13d8515b242d807aae183937991e18401dc501bf53e1d71f366740b',
        'cells.csv': '9c7a1291002a76cf86695ac7b218aa985f12837615038b79b901c01e792724bd',
        'fig3_audio.csv': '054b82a81bd36b2b0d36621c1df88533f69517b7d5050e9abd2a9b209b727031',
        'fig3_audio.svg': '3f3842ac903b9962b997c85438d953e0a618bc992fa9b8781786f8b52283e59e',
        'fig3_video.csv': 'b8731438a84f26b6a896411c488a64aa34075113364259b47ec81c75a6b7920e',
        'fig3_video.svg': '35128e77c6b2afacaed7928b4315337d6a39b4955b9a30be1ab7af38f570c13f',
        'report.json': 'bbe236ded50622861d8340faa4243fa27e35586cceec454a032abadd46250feb',
    },
    'case audio': {
        'stdout': '726d56142e1cda702ad6da3da25336a76edfd18381ee1682cb25b90ac2b49162',
    },
    'case video': {
        'stdout': '888009ed0d4dd45f0e3f758cec50f0c16e68f8a5bd656e80bb2ac87182587301',
    },
    'case audio --json': {
        'stdout': '9529195a59b2b68a80b04b94381c8cd9ee3b6f4bb9a03d8b583d18bcc7f21542',
    },
    'case video --json': {
        'stdout': '0351a272d111d60fe14351b25116fa73e157d8c9d2440dbde8cf2e6c72fdfb17',
    },
    'case audio --out': {
        'stdout': 'fa43142e44bb63ea244474da546289537032bd9b03f22781ab06f725b3cd4c98',
        'audio.svg': '9c949488545bbf11eea9ec1eb7e3fc96ab4fe2d6c439f742a484fa68ca89beb0',
        'audio_curves.csv': '831de9d8eab7756654159c63e30aff51215ed32571cfa095860bf1d25cade01d',
    },
    'case video --out': {
        'stdout': '2c300d3a2a3687aa4eebd66b193353375e4081e6d78c5f9d8464f8bb3cf83252',
        'video.svg': '9e0eb5f1ae536c82947008b6b36356b37046f2287200419506f0dff11ad601d4',
        'video_curves.csv': '1f5ee98bea2a1cf3bbbcb1c9a728a4a95815df6aad1fb55a63754e3d8e832055',
    },
    'case audio --scenario': {
        'stdout': '4361f4cf14fd35872467bf119c7a082df9b23b0e96d640f844cc44e57444a13b',
    },
    'case video --scenario': {
        'stdout': 'a911c1cc81ddaeb26577e269972796ff2ed33e9abeccfc5dcdb077848e74fcdc',
    },
    'sweep 13k': {
        'stdout': '3b11bfecc1c47b4f35b5ecf08712131f99c7af7f16da9ae88d14886c5945232e',
        'feasibility.json': '7da5e5965c5db311951c3532b300ad4da3003fc4b1a1a64657c5c9bf845866b1',
        'results.csv': '0e5667c0e47341fefddadb537d3d9df2ac9d60a3ed1c594e487e270289ba5411',
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(argv: list[str]) -> dict[str, str]:
    """Run `techknee argv` in the current directory: the sha256 of its
    stdout and of each file it wrote under `out/`, by name."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(list(argv))
    if code != 0:
        raise AssertionError(f"techknee {' '.join(argv)} exited {code}")
    found = {"stdout": _sha256(stdout.getvalue().encode("utf-8"))}
    out = Path("out")
    if out.is_dir():
        for path in sorted(out.iterdir()):
            found[path.name] = _sha256(path.read_bytes())
    return found


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_output_bytes_match_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("TECHKNEE_DATA", raising=False)
    monkeypatch.chdir(tmp_path)
    assert digests(INVOCATIONS[name]) == GOLDEN[name]


if __name__ == "__main__":
    os.environ.pop("TECHKNEE_DATA", None)
    recorded = {}
    for name, argv in INVOCATIONS.items():
        with tempfile.TemporaryDirectory() as work:
            here = os.getcwd()
            os.chdir(work)
            try:
                recorded[name] = digests(argv)
            finally:
                os.chdir(here)
    lines = ["GOLDEN: dict[str, dict[str, str]] = {"]
    for name, files in recorded.items():
        lines.append(f"    {name!r}: {{")
        lines += [f"        {file!r}: {digest!r}," for file, digest in files.items()]
        lines.append("    },")
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
