"""Golden CLI output: `--format json` stdout must stay byte-identical.

The digests are the sha256 of the exact stdout of each command, recorded
before the single-pass classification refactor.  A change that alters a
verdict, a witness, the order of certificates or the JSON layout shows
up here as a digest mismatch.  Every certificate of the `classify`
commands must also pass the independent audit.  The cap sweeps pin what
`--cap` refuses: stdout, stderr and exit code of `classify`, `galois`
and `verify-theorem` at caps on both sides of every threshold.
"""

import hashlib
import json

import pytest

from graphdivisors import Divisor, GaloisCertificate, audit_certificate, generate
from graphdivisors.cli import _read_plain, main

GOLDEN_SHA256 = {
    "corpus --n 3": "efe357864a8b1a1f5374def10b6fcac933316b701eed6b7f8a3b96b6b6af3a3f",
    "corpus --n 4": "f17618bc2d7c8e7eba1d9c9ee6a068bbab2cba6744943fdf64e39adde27f668c",
    "corpus --n 5": "b7532ba3740af590040ca65383f462b0c63e2bc97659c5cbdc2d17dd630ef31c",
    "corpus --n 6": "67c293936859f1a221df6ab8b5ff3c2ee62be1baae030fc569754ed29da3e980",
    "classify --family house4": "5106cb58f3f865916d0b42e20f207406d7612c73c2a1c836d04d0b3ae38f6913",
    "classify --family cycle:4": "252b6d7ed0b959d5a1ec50eba1fb181befa64a9601f13acbb7fe7daaa9bb8059",
    "classify --family cycle:5": "2b0d8a8b93751482f1399a1d50b6b6d714b990bd3856cec3214922cb1f42db49",
    "classify --family cycle:6": "04ba9270e06f0dc6fa448aaf92612884737e24756f96af7897cb2d604573d8d3",
    "classify --family complete:3": "bfc32fab495650f174545102d83a52b1f2129f75147df93b1ba26de38ef8da29",
    "classify --family complete:4": "e4d41dc986fcab76900c47fee0206573b8a88a6917546a68c68f07396209305b",
    "classify --family complete:5": "81637608ddaec8b9479ceeb7f0b6c0e30c698456d37bbe8025b69115d6ff2b23",
    "classify --family complete:6": "4cc5ce7a5211de1c7ac1f42059a288901359dbe995e4a33408139acb6e63b989",
    "classify --family complete:7": "ecd3e9a8cdc54fe0dec233bb12c43ffdc34c2e6daf1104892ea45c8b6613b05f",
    "classify --family complete:8": "4571f0d827038c8fead7ebc62fcd89cedf88327ab0bce5f7a759ab06f3352fcc",
    "classify --family wheel:5": "fc2c732f3819e36016d598dcd528bbac44c3fe2397e5c1a78101e24938b3efa5",
    "classify --family wheel:6": "1e55bb5a7f32faf8225d57be98cd4a80fb973ea67f11e7dabdd7de92d8657cda",
    "classify --family wheel:7": "16010896dba5e19a0ff2e7c8fa208f45010f4977dc54987a560ba599e27a3164",
    "classify --family wheel:8": "2a5c67b3304af534f9e91123620721d42efcf04994b5ecb86eb6e1daf439a53a",
    "classify --family wheel:9": "ce35aaaaf74b54f96fe4b0e62fd60ab88c87d99826956f014cb110b57e800571",
    "classify --family wheel:10": "faee697a9188efe14f4dde60d65890296649fdaede60c9cf576c24f9e3e30b1a",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_json_output_matches_golden_digest(command, capsys):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]
    if command.startswith("classify"):
        payload = json.loads(out)
        g = generate(command.split()[-1])
        d = Divisor.from_json(g, payload["divisor"])
        for obj in payload["certificates"]:
            cert = GaloisCertificate.from_json(g, obj)
            assert audit_certificate(g, d, cert) == [], cert.vertex


# sha256 of `linsys ... --format json` stdout, recorded before the
# linear system was walked by one-grain avalanches: an empty system, a
# negative degree, and systems of 28, 6, 7, 5, 10 and 8 members.
LINSYS_GOLDEN_SHA256 = {
    'linsys --family complete:5 --divisor {"P1":3,"P2":-1}':
        "88a567b4d8d48d44663b4f1209bce57dcd1d3d7a6ff4888b008e278efe60df6c",
    'linsys --family complete:4 --divisor {"P1":-1}':
        "4ec628d58844e9108215f3a6fa7e157044f708a23b5d0ab9cb241e50037b77c7",
    'linsys --family complete:6 --divisor {"P1":2,"P2":2,"P3":2,"P4":2,"P5":2,"P6":2}':
        "bc581c9287b863775b763bfff8d62a00784bc2142231a172245bcf2e282031c3",
    "linsys --family complete:5 --divisor all-ones":
        "b0b20128b9c2fcff2909c7eebc650b042b213f636e1f503f837bea665bc5e54e",
    "linsys --family wheel:6 --divisor all-ones":
        "f0c5e71aa50ee97fa0f3622c6d768de5340adc8793ac7a8af8893dd75f1129cd",
    "linsys --family house4 --divisor all-ones":
        "d52618ebafcdd31cfcac1935345405805e4e0bc2f7b1af310a4d38b1c005124f",
    'linsys --family cycle:6 --divisor {"P1":3}':
        "575450255dbfdaba1122b98c0857f9022307df27495f0011b28b69bf2e1f7ab9",
    "linsys --family wheel:7 --divisor all-ones":
        "95e9cb380fd439bd2797e05e09c423b4948be998e6d52e6a0181acba7cc60980",
}


@pytest.mark.parametrize("command", sorted(LINSYS_GOLDEN_SHA256))
def test_linsys_output_matches_golden_digest(command, capsys):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LINSYS_GOLDEN_SHA256[command]


# Caps on both sides of every threshold these graphs reach: the
# cumulative rank-probe counts (sum over s <= k of C(s+n-1, n-1): 4, 14,
# 34 on four vertices; 5, 20, 55, 125, 251 on five; 6, 27, 83 on six) and
# the witness search's linear-system gate C(2n-2, n-1) (20, 70, 252).
CAPS = (0, 3, 4, 5, 6, 13, 14, 19, 20, 26, 27, 33, 34, 54, 55, 69, 70, 82, 83, 124, 125,
        250, 251, 252)

# sha256 over the stdout, stderr and exit code of the command at every
# cap in CAPS, in text and in JSON; recorded before smoothness stopped
# calling `rank`.
CAP_GOLDEN_SHA256 = {
    "classify --family complete:4": "6c538f6bf7c026072f1287dcfa7aa1b0763d2b89f2a8689a772e88c5e819a27c",
    "classify --family complete:5": "0329f3bfa8381f19e9d249184df9297bc5e891f44650376a8e21e4f835c4b657",
    "classify --family cycle:5": "6aa419843566bdfd61b2b43b4848d8e0e089e53085cae0632b7f942bd46ad49d",
    "classify --family house4": "844376f9b63d53ec69d6480b0f862acda7f2bd8d434eb36ff2e8601e2828bb0a",
    "classify --family wheel:5": "8941f9a57a6cfe82bced5da3cd4e3b99f6ff2517ff6cea2ba1ffd4adbbfad56e",
    "classify --family wheel:6": "70dae118c37886456edec4f1801aa8e8a860f6616f427fc0f883cb7f726a3c64",
    "galois --vertex P1 --family complete:4": "f100b73a1f3fa47f3763fc66117868f925604b046c5e4edf87c288ed6a377b4e",
    "galois --vertex P1 --family complete:5": "9c36488e9efa219f4f549737a1b0d3ec3fd79de125188295f5a4c4b04b7ff052",
    "galois --vertex P1 --family cycle:5": "bb9ad7631628831838fc41b6361a077944a5c5f998442f94ea2b7e5dbff701e7",
    "galois --vertex P1 --family house4": "9b8fc6c4c998991a29fcd53d700f053bdcc1d382d0ffae0cc0994836cfea38e1",
    "galois --vertex P1 --family wheel:5": "9c36488e9efa219f4f549737a1b0d3ec3fd79de125188295f5a4c4b04b7ff052",
    "galois --vertex P1 --family wheel:6": "7b03c9d3bfa3bed2a3e1a47260d4ab30e6bf8ab777945d6e34516642cf518a24",
    "verify-theorem --family complete:4": "8139b5fcb076b40be1ec056f321b1b4246ae9cc4e7bb3911f96574a667dfeaeb",
    "verify-theorem --family complete:5": "57fae8106dfa4db6f6799b369d9fe85d6477d9a2916c013cdf520833a24a4547",
    "verify-theorem --family cycle:5": "30684c0d235904d675f84766a42412d75003fab08cee9d3290cddd2999cfb946",
    "verify-theorem --family house4": "da00552e3e5baf66a4473ae350004cab1de7fc16cca883fed947d5a6b3aa4057",
    "verify-theorem --family wheel:5": "08241390aa065c605ce48ff1441ae44ef0b046b339e7d755d942388ac50bd3eb",
    "verify-theorem --family wheel:6": "6cae7333879aa91d490408563402e9b35cf8c48aed9f56c7636f7c588d37d96c",
}


def cap_sweep_digest(command, capsys):
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        for cap in CAPS:
            code = main(command.split() + ["--cap", str(cap), "--format", fmt])
            out = capsys.readouterr()
            digest.update(json.dumps([fmt, cap, code, out.out, out.err]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("command", sorted(CAP_GOLDEN_SHA256))
def test_cap_sweep_matches_golden_digest(command, capsys):
    assert cap_sweep_digest(command, capsys) == CAP_GOLDEN_SHA256[command]


# sha256 of `--format json` stdout, recorded before the witness pool was
# found by a pruned automorphism search: a large classification and full
# automorphism groups of three sizes.  complete:10, the largest
# classification under the vertex cap, was recorded before each
# vertex's stabiliser was streamed into the subgroup search.  The
# quotients were recorded before each edge class was built once from its
# sorted (endpoints, members) pair; the involution of complete:6 gives
# two parallel classes per pair of orbits, and the reflection of
# cycle:10 a class whose label order ("P1" < "P10" < "P2") differs from
# the order of its edges.
SYMMETRY_GOLDEN_SHA256 = {
    "classify --family complete:9": "51c9529d69234c5a1faad43fc2dd15f36925d7f1b4d8263a5470f41c7ada03bf",
    "classify --family complete:10": "ef9125ad64f8398157193da243945af368006dadc4de11e5b3ca6c41ddb82057",
    "aut --family complete:5": "9e95e551db592da86eb024088016e209a3710fba365f8917224892b3a7a48790",
    "aut --family wheel:6": "57489a589ed10bed2bd16d6ca5521aae225729dd3a4f83c4627340effa06619d",
    "aut --family house4": "31037cfd269651118b347f53d3c030dc9399fa84dbe2583b01a288e3c4bfbf3f",
    "quotient --family complete:5": "e14be56360851a090a1e46ec08f9861b1fb9d08dae0abd1b31decae459d7feb3",
    "quotient --family wheel:6": "3fafe97439b3051755fbefbc35a8f521fd0151c92d11f732ff803332b3975b0b",
    "quotient --family house4": "ca43ad445d0b29e60f2fce687b2237708169a08b61a27eeb5e9d16b545c1ccf4",
    'quotient --family complete:6 --subgroup [{"P1":"P2","P2":"P1","P3":"P4","P4":"P3","P5":"P6","P6":"P5"}]':
        "85bef37d60e10a07defc8477d6b4b9e410f0f13a0e2ef3c77809de84f065827c",
    'quotient --family cycle:10 --subgroup [{"P1":"P9","P9":"P1","P2":"P8","P8":"P2","P3":"P7",'
    '"P7":"P3","P4":"P6","P6":"P4","P5":"P5","P10":"P10"}]':
        "7c11a359ea4f71c56076dfd12db5b543c06b38c09a65423325f26cbd92fdde4e",
}


@pytest.mark.parametrize("command", sorted(SYMMETRY_GOLDEN_SHA256))
def test_symmetry_output_matches_golden_digest(command, capsys):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYMMETRY_GOLDEN_SHA256[command]
    if command.startswith("classify"):
        payload = json.loads(out)
        g = generate(command.split()[-1])
        d = Divisor.from_json(g, payload["divisor"])
        for obj in payload["certificates"]:
            cert = GaloisCertificate.from_json(g, obj)
            assert audit_certificate(g, d, cert) == [], cert.vertex


@pytest.mark.parametrize("command", [
    "classify --family wheel:11",
    "classify --family complete:11",
    "galois --vertex P1 --family complete:11",
    "verify-theorem --family wheel:11",
    # Past both caps, the automorphism vertex cap refuses first.
    "classify --family complete:11 --cap 1000",
    "galois --vertex P1 --family complete:11 --cap 1000",
    "classify --family wheel:11 --cap 1000",
])
def test_refused_past_the_automorphism_vertex_cap(command, capsys):
    code = main(command.split())
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == "error: automorphism search is capped at 10 vertices, graph has 11\n"


# sha256 over the exit code, stdout and stderr of argvs that argparse
# answers itself (help, usage errors, bad choices and types) or that end
# in an argparse error after a command was named, recorded before the
# parser was built from one command table.  argparse wraps help text to
# the terminal width, so COLUMNS is pinned.
PARSER_GOLDEN_SHA256 = {
    "": "935f576316680be50e55541039521966115e38acc00faebb9019cf3e21d912df",
    "-h": "bb8b0451644c9c63e1afcfe7880f4420c1addd0ae3724aab7ecbdcb1b0d4e8cb",
    "nope": "d3968dbab2a83a18bd835fa218820f416dcbdf067fbd1b34ba93cd5993f2ddc4",
    "corpus": "14604afa1debe2c8017092cd079007633b23cc3e25fbd7ad512964e0f7e5acce",
    "corpus -h": "9b94b84696f9c42d4546a1e12c6832429292fc7e181e177a52853fbeb01396d5",
    "classify --help": "7415ea879ad8e4fa1685e90983fccb901dc75b628a695209bda29418de55c5d5",
    "corpus --n 5 extra": "0aa2ac8115ed9ccd412696015a60fa3e1df7fba35e979919b77dcacb9d87f162",
    "rank --family complete:4 --divisor all-ones --format xml":
        "0022cf66968fc8720cf7a8a5f5a806c2b154f15d8b68189789037e0cc2ccc5d8",
    "harmonic --family complete:4 --mode bad": "b7c8fb76396d837f69aaeb7da2c06a03f4624733f52f14eabf23f5deb3633d49",
    "corpus --n x": "90e4c9a919617385b083deaf88aa70c8cc3db2539d6ea2ae04b19161f733342a",
}


@pytest.mark.parametrize("command", sorted(PARSER_GOLDEN_SHA256))
def test_parser_output_matches_golden_digest(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(command.split())
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([code, out.out, out.err]).encode()).hexdigest()
    assert digest == PARSER_GOLDEN_SHA256[command]


# sha256 over the exit code, stdout and stderr of argvs that argparse
# reads but the plain-argv table reader declines: `--flag=value`, an
# abbreviated flag and repeated flags (the last value wins).  Recorded
# while every argv still went through argparse.
FALLBACK_GOLDEN_SHA256 = {
    "corpus --n=4 --format json": "f45eab1f6d0d24319a00b7115013943a041b61d8e91a529f1f87b7318d8b7025",
    "corpus --fo json --n 4": "f45eab1f6d0d24319a00b7115013943a041b61d8e91a529f1f87b7318d8b7025",
    "corpus --n 3 --n 4 --format json": "f45eab1f6d0d24319a00b7115013943a041b61d8e91a529f1f87b7318d8b7025",
    "rank --family=complete:4 --divisor all-ones": "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5",
    "reduce --family cycle:5 --divisor all-ones --base P2 --base P3":
        "df0296df0e08e75c6341a3f27a1ca1e832a2c16fdc82270aac938a35f56979e9",
}


@pytest.mark.parametrize("command", sorted(FALLBACK_GOLDEN_SHA256))
def test_fallback_output_matches_golden_digest(command, capsys):
    assert _read_plain(command.split()) is None
    code = main(command.split())
    out = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([code, out.out, out.err]).encode()).hexdigest()
    assert digest == FALLBACK_GOLDEN_SHA256[command]
