"""Golden CLI output: `--format json` stdout must stay byte-identical.

The digests are the sha256 of the exact stdout of each command, recorded
before the single-pass classification refactor.  A change that alters a
verdict, a witness, the order of certificates or the JSON layout shows
up here as a digest mismatch.  Every certificate of the `classify`
commands must also pass the independent audit.
"""

import hashlib
import json

import pytest

from graphdivisors import Divisor, GaloisCertificate, audit_certificate, generate
from graphdivisors.cli import main

GOLDEN_SHA256 = {
    "corpus --n 3": "efe357864a8b1a1f5374def10b6fcac933316b701eed6b7f8a3b96b6b6af3a3f",
    "corpus --n 4": "f17618bc2d7c8e7eba1d9c9ee6a068bbab2cba6744943fdf64e39adde27f668c",
    "corpus --n 5": "b7532ba3740af590040ca65383f462b0c63e2bc97659c5cbdc2d17dd630ef31c",
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
