"""Byte-for-byte pins on CLI output.

Each case runs ``cli.main`` in-process and compares the SHA-256 of what it
prints (and of every file it writes) with a digest recorded from a build
whose output was checked by hand.  Refactors that must not change output
keep this module passing unchanged; a deliberate output change updates the
digest in the same change and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from gwcurves.cli import main

POLY = "h*b1 - 2*<3>*b1 + b1*b2 - <-1>*b2 + 5 * b3 + <-5>"
CONST = "2h + 8*<1> - <-3> + 3*<6> - 2*<1/2>"
LEADING_MINUS = "<1> - <1> - b1 + 2*h*b2 - 3*h*b1*b3"

# name -> (argv, exit code, SHA-256 of stdout)
STDOUT = {
    "gw-eval-const": (["gw-eval", CONST], 0, "1c9fb10ca16e74f8810c81febb56ccbf6cc9e6f5e11c81d93bcccf2c77d33749"),
    "gw-eval-const-unicode": (["gw-eval", "--unicode", CONST], 0, "ff673d98f48e44c1aaf6216d27a55c5cec152d8fa0f6a7c84d5338f872ce6003"),
    "gw-eval-const-json": (["gw-eval", "--json", CONST], 0, "942cc622fb6a0c84e0330ae9fb39a92453b7f3c7c3c5a0e6496e9bf878788880"),
    "gw-eval-poly": (["gw-eval", POLY], 0, "a2d6b29c8d8458f6a5bc48cb4d7764377394d8fd7fdaa2bd00c83fec246a6ad0"),
    "gw-eval-poly-unicode": (["gw-eval", "--unicode", POLY], 0, "24f3892215bf823f7c0473f5b7380a3623358ae433ef7d99761311bccea22568"),
    "gw-eval-poly-json": (["gw-eval", "--json", POLY], 0, "a2bd37ddaa5ab9173002e365a168fdd020bbc2dc35773f6418772e352e2f05db"),
    "gw-eval-leading-minus": (["gw-eval", LEADING_MINUS], 0, "f22fa37b0a1e27a951e762527cab7189f38cd0f56553b3368993ce6373b8f978"),
    "gw-eval-leading-minus-unicode": (["gw-eval", "--unicode", LEADING_MINUS], 0, "253fe8e7254481a5af2497e6cf43d934c3a8f7a22d458949e4d7ecf39520ce24"),
    "gw-eval-trace": (["gw-eval", "tr(-1;1) + tr(5;1,2)*b1 - 3*h"], 0, "918ede27820feadf2540b9cb709d86767c9ed2b788346b34e28ac5538e8ef0ac"),
    "gw-eval-zero": (["gw-eval", "<1> - <1>"], 0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    "gw-equal-equal": (["gw-equal", "tr(-1;1)", "h"], 0, "1907d592edca123512edf021ad7230b31ee3b68b2e38b78b07acd5e85256a3d6"),
    "gw-equal-not-equal": (["gw-equal", "<1>", "<2>"], 1, "56403957ef1777cf667726c8d0824fdc9a4641b3d8e48a8dc9a2ec632491cb93"),
    "invariant-p2-4": (["invariant", "--polygon", "p2:4"], 0, "6b5897e7ac9f7dac2609186a80983c15c5870cec18e9837422da18e4a8c3336c"),
    "table-p2-4-markdown": (["table", "--chain", "p2:4"], 0, "d3734d5c7a6e119ac015405eacfffe895a0582f48daf8094effbce48c2b8c9bc"),
    "table-p2-4-json": (["table", "--chain", "p2:4", "--json"], 0, "2f6ef1271bf272dc793421b2864a3cb84978e44ae344b24209d6cadb4a635fe6"),
    "table-p2-4-signature-neg": (["table", "--chain", "p2:4", "--signature", "neg"], 0, "ea9c388f95bd6af5fd0006f8e793d8b556f74006f45eea9c33ceeb227f2fce16"),
    "table-blf1-specialize": (["table", "--chain", "blf1", "--specialize=-1,-1"], 0, "63e6e3a19c2e5b58b2b8fb229d7cb95a7ac4682a921ce80e4485c9c0676683e1"),
}

# stdout, --json file and --svg file of one tropical run
TROPICAL = {
    "stdout": "c9073ff33da6087b2f6df98662dc15b1bfc94ed3cc4934e53d1354dddd67549b",
    "json": "02609635e2cca44b47aeb7e739036f30154baf70e47d920d6199fede5bf56597",
    "svg": "377a34809ea0c74bab43fe6095d6efd3c0ee14a10c1dac26c690f279e9941d31",
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_stdout_pinned(name, capsys):
    argv, code, digest = STDOUT[name]
    assert main(argv) == code
    assert _sha(capsys.readouterr().out) == digest


def test_tropical_outputs_pinned(tmp_path, capsys):
    js, svg = tmp_path / "out.json", tmp_path / "out.svg"
    argv = ["tropical", "--polygon", "blf1", "--list-curves", "--json", str(js), "--svg", str(svg)]
    assert main(argv) == 0
    got = {
        "stdout": _sha(capsys.readouterr().out),
        "json": _sha(js.read_text(encoding="utf-8")),
        "svg": _sha(svg.read_text(encoding="utf-8")),
    }
    assert got == TROPICAL
