"""Golden CLI output: exit code and sha256 of stdout and of stderr.

Each command below runs through `hypident.cli.run` and must reproduce, byte
for byte, the output recorded in GOLDEN.  The hashes cover every printed
float, so they depend on the platform libm (exp, cosh, log, ...): a
different libm may change last digits and every hash with them.  Where the
output is meant to change, regenerate the table with

    PYTHONPATH=src python tests/test_golden_cli.py

which also lists on stderr each command whose outcome moved from GOLDEN;
review the diff of those commands.
"""

import hashlib
import io
import sys

import pytest

from hypident.cli import run

_CUSPED = ("--traces", "3,3,3")
_HOLED = ("--fn", "1.2,0.4,1.5")
_KINDS = (
    ("thm11", _HOLED),
    ("thm12", _CUSPED),
    ("thm15", _CUSPED),
    ("thm31", _HOLED),
    ("four", _HOLED),
    ("four-simple", _HOLED),
    ("four-cusped", _CUSPED),
    ("mcshane", _CUSPED),
)

# verify and terms for every kind; each alternates json and csv from kind to kind
COMMANDS = [
    (command, "--identity", kind, *point, "--cutoff", "8", "--format", fmt)
    for i, (kind, point) in enumerate(_KINDS)
    for command, fmt in (("verify", ("json", "csv")[i % 2]), ("terms", ("csv", "json")[i % 2]))
] + [
    ("spectrum", *_CUSPED, "--cutoff", "8", "--format", "json"),
    ("spectrum", *_HOLED, "--cutoff", "8", "--format", "csv"),
    ("sweep", "--identity", "thm11", "--vary", "k=0.5:1.5:0.25", "--fn", "1.2,0.3,_",
     "--cutoff", "8"),
    ("selftest", "--seed", "0"),
    ("selftest", "--seed", "3"),
    ("verify", "--identity", "thm12", "--traces", "3,3", "--cutoff", "5"),
    ("sweep", "--identity", "thm11", "--vary", "q=1:2:1", "--fn", "1,_,1", "--cutoff", "5"),
    # long cutoffs, where terms are e^{-35}-small: every digit of the kernels shows
    ("verify", "--identity", "thm11", *_HOLED, "--cutoff", "35"),
    ("terms", "--identity", "thm31", *_HOLED, "--cutoff", "35", "--format", "csv"),
    # a thin cusped point: 456 records in long twist runs, 227 adjacent
    # pairs of equal length, so the (length, slope) order shows
    ("spectrum", "--fn", "8,0,0", "--cutoff", "20", "--format", "csv"),
    ("verify", "--identity", "mcshane", "--fn", "8,0,0", "--cutoff", "20"),
    ("terms", "--identity", "thm15", "--fn", "8,0,0", "--cutoff", "20", "--format", "csv"),
    # a cusped point with records shorter than 1, where the simple bracket at k = 0
    # takes three dilogarithms and not the odd series
    ("terms", "--identity", "thm12", "--fn", "0.5,0,0", "--cutoff", "6", "--format", "csv"),
]


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, _sha(out.getvalue()), _sha(err.getvalue())


GOLDEN = {
    "verify --identity thm11 --fn 1.2,0.4,1.5 --cutoff 8 --format json": (
        1,
        "8d79fb1f014e953a601cec901b7a223247760dd17901a1f4dd6ba7329e92e182",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity thm11 --fn 1.2,0.4,1.5 --cutoff 8 --format csv": (
        0,
        "ce98fe9d768a44972272e337d4eed14a93244e891af7772fb915fce6594f970f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity thm12 --traces 3,3,3 --cutoff 8 --format csv": (
        1,
        "2a1303cb93ab2b295f1ccbd5e040f818d02e008a0531ea5a2674a59354679513",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity thm12 --traces 3,3,3 --cutoff 8 --format json": (
        0,
        "a76d76dce6394a6f12ce01b54d69f6f8230067939f5b1e125c36dea1ae397c30",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity thm15 --traces 3,3,3 --cutoff 8 --format json": (
        1,
        "5abe4bba35e576fac70aec9cb5c2a104c1ee4b857aaaa5757532bb85d7a5ce9b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity thm15 --traces 3,3,3 --cutoff 8 --format csv": (
        0,
        "f646ac68511cf961292f8b6401bdf1b437924246ab0e7ca10633fa5f7485ec6c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity thm31 --fn 1.2,0.4,1.5 --cutoff 8 --format csv": (
        1,
        "8f4eb1135e695ffb7fbde461a488992745bdf261deb08c4bed49904b749564dd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity thm31 --fn 1.2,0.4,1.5 --cutoff 8 --format json": (
        0,
        "3b881ea840eae5840f9ba839a852b3960fc52d7115a1d53f985b0ee0227dc52c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity four --fn 1.2,0.4,1.5 --cutoff 8 --format json": (
        1,
        "d455d4a32c04ca66b3bc1646672ce4db108703f80a4cedc2310e8bc5b6e689c1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity four --fn 1.2,0.4,1.5 --cutoff 8 --format csv": (
        0,
        "93a48b539c4d5da735a225ad8bfc5247800c59fc2f6082266db60a70014f378f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity four-simple --fn 1.2,0.4,1.5 --cutoff 8 --format csv": (
        1,
        "fcf65d2a1e25243e809eda31e2fe9af3a06c94e37cfe9e3233500099be889bfe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity four-simple --fn 1.2,0.4,1.5 --cutoff 8 --format json": (
        0,
        "23f95623717bec3f7e233ea13c87cf5fff88dbe52a50f66de623fae04e2bc445",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity four-cusped --traces 3,3,3 --cutoff 8 --format json": (
        1,
        "c52637152bca5a5a84a5305d33500d73cf86b23ca9e34232e7c0b1c568bd5e96",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity four-cusped --traces 3,3,3 --cutoff 8 --format csv": (
        0,
        "dfcbd2a0455d01703b2358b9c4d45328056d79de27177c7a5269b762267ab2c1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity mcshane --traces 3,3,3 --cutoff 8 --format csv": (
        1,
        "5a2dde61e831c6553c875e35b03afb4a5f6b7b7ab51c228689feeff1317e6e9b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity mcshane --traces 3,3,3 --cutoff 8 --format json": (
        0,
        "36a7c94568c5e7b5dbe0521dadcf6aef95fa76ee6566b1e6c204370a345fdb2c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "spectrum --traces 3,3,3 --cutoff 8 --format json": (
        0,
        "d168e631ea37ce05060747a9088fa90fbbc7a36d52800e0e58955e36ed18b63a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "spectrum --fn 1.2,0.4,1.5 --cutoff 8 --format csv": (
        0,
        "20f06205dff8dbb24b2a42d2fa651ff8478a0c6a63beb98de750d4b951a93277",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "sweep --identity thm11 --vary k=0.5:1.5:0.25 --fn 1.2,0.3,_ --cutoff 8": (
        0,
        "056c8e8e59623219edee151a4f37f0285800806974ce7f230bfd805284845e2f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "selftest --seed 0": (
        0,
        "d877ce58a091c9d3d721d00ff64a3ad68ef1a8e17c140a8893ad1fc6f5d8a11b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "selftest --seed 3": (
        0,
        "b6188d794d765b6f3811193974bdd79855981728ff64a3bf5446e23b4f7d4fc4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity thm12 --traces 3,3 --cutoff 5": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ef869003d36420eac08c67901f005c97c6cbf5d38bd5955343e628ff136ac7f6",
    ),
    "sweep --identity thm11 --vary q=1:2:1 --fn 1,_,1 --cutoff 5": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "39a8251f54367d36c5de389ddac4181046dd26eb610c1e532763278158bcb5e7",
    ),
    "verify --identity thm11 --fn 1.2,0.4,1.5 --cutoff 35": (
        0,
        "0c2d60997f06efcfd76f8afdae6b1a54d26daf78b870d0770627f5b76c96f62a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity thm31 --fn 1.2,0.4,1.5 --cutoff 35 --format csv": (
        0,
        "8eb26257f6e6eaf5a79c3a213a3708b6b326aef311b45008dd88da1004d0b28c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "spectrum --fn 8,0,0 --cutoff 20 --format csv": (
        0,
        "08cca53acfd85cafc9db417abe79505b79f595871dad47a27555312ec85b9570",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --identity mcshane --fn 8,0,0 --cutoff 20": (
        0,
        "0deb11fdbff1164b9f40a4f02a4ff190f7e271f89e666cf0d2ecc94e53bee139",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity thm15 --fn 8,0,0 --cutoff 20 --format csv": (
        0,
        "088ad60a4aa818c6ee5eb4417deb0f846d3350676eaa420197bcca89eece27f8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "terms --identity thm12 --fn 0.5,0,0 --cutoff 6 --format csv": (
        0,
        "9e92305a301724dd6216093aa60cc63238fec3aaa922ef2a33f470d01507988a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert _outcome(argv) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    entry = '    "{}": (\n        {},\n        "{}",\n        "{}",\n    ),'
    print("GOLDEN = {")
    for argv in COMMANDS:
        key, outcome = " ".join(argv), _outcome(argv)
        if outcome != GOLDEN.get(key):
            print(f"moved: {key}", file=sys.stderr)
        print(entry.format(key, *outcome))
    print("}")
