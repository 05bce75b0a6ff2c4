"""Pinned CLI outputs: the sha256 of (exit code, stdout, stderr) for a fixed
list of argv.  A change that alters an output on purpose updates its digest
here and names the change in CHANGES.md.  ``python tests/test_cli_golden.py``
prints the digests of the current tree in the form of ``DIGESTS``."""
import contextlib
import gc
import hashlib
import io
import json
import shlex
from unittest import mock

import pytest

from fanokit import cli
from fanokit.presets import POLYTOPE_PRESETS


def _facets(dim, normals):
    return json.dumps({"dim": dim, "facets": [{"normal": l, "offset": "1"} for l in normals]})


P2 = _facets(2, [[1, 0], [0, 1], [-1, -1]])
P3 = _facets(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
PO_O2 = _facets(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [-1, -1, 2]])
# P^2/mu_3: normals summing to zero, every vertex cone of |det| 3; the one singular gap-check
P2_MOD_MU3 = _facets(2, [[1, 1], [1, -2], [-2, 1]])
WEIGHTS = json.dumps({"n": 2, "weights": ["1/2", "1/2", "1/2", "1/2"]})
DIAGONAL = json.dumps({"n": 2, "d": 3, "a": [1, 1, 1, 8]})
# the conic (lambda = 1, correction 0.0), d = 1 with negative coefficients, d = n + 1
DIAGONAL_EDGES = [json.dumps({"n": 1, "d": 2, "a": [1, 1, 1]}),
                  json.dumps({"n": 3, "d": 1, "a": [2, -3, 5, 7, 11]}),
                  json.dumps({"n": 4, "d": 5, "a": [-9, 2, 3, 5, 7, 1]})]
# the correction is -9.0e307, finite; twice it is not, so the report is refused
DIAGONAL_BEYOND_DOUBLE = json.dumps({"n": 141, "d": 2, "a": [10**250] * 143})
P1_WEIGHTS = json.dumps({"weights": ["1/2", "1/3", "1/4"]})
# V = -1/3: the continuation branch; the second spec sets its target in the JSON
P1_CONTINUATION = json.dumps({"weights": ["11/12", "3/4", "2/3"]})
P1_JSON_PRECISION = json.dumps({"weights": ["1/2", "1/3", "1/4"], "precision": 1e-6})
# 2 w_1 > sum(w) by 1/1000: refused at every target
P1_NEAR_MISS = json.dumps({"weights": ["1/2", "1/4", "249/1000"]})
# a polytope given twice, as facets and as vertices: refused, not read as its facets
BOTH_KEYS = json.dumps({**json.loads(P2), "vertices": [[-1, -1], [2, -1], [-1, 2]]})
WEIGHTS_N3 = json.dumps({"n": 3, "weights": ["1/2", "1/2", "1/2", "1/2", "1/2"]})
OFF_ORIGIN = json.dumps({"dim": 2, "vertices": [[1, 1], [1, 2], [2, 1], [2, 2]]})
# its top cut level, about 10^320, lies beyond the double range
HUGE_CLOUD = json.dumps({"dim": 3, "vertices": [[0, 1, 2], [1, 0, 1], [2, "-3/2", 0],
                                                [0, -1, str(-10**320)], [-3, -1, str(10**200)]]})

CASES = [
    *([command, "--preset", name] for name in sorted(POLYTOPE_PRESETS)
      for command in ("volume", "barycenter", "semistable", "gap-check")),
    ["gap-check", "--json", P2_MOD_MU3],
    ["sx", "--preset", "p3-blowup"],
    ["sx", "--preset", "po-o2"],
    ["sx", "--preset", "po-o2", "--format", "table"],
    ["sx", "--preset", "p3-blowup", "--format", "csv"],
    ["sx", "--json", PO_O2],
    ["reproduce-paper", "--format", "json"],
    ["reproduce-paper", "--format", "csv"],
    ["reproduce-paper", "--format", "table"],
    ["reproduce-paper", "--perturb"],
    ["pn-height", "--n", "3"],
    # n = 141 is the last height inside the double range
    *(["pn-height", "--n", str(n)] for n in (1, 60, 141, 142)),
    ["scaled-height", "--n", "3", "--t", "1/2"],
    ["scaled-height", "--n", "8", "--t", "7/12"],
    ["universal-bound", "--n", "3", "--volume", "31/3"],
    ["stability-polytope", "--n", "2", "--m", "4", "--degree", "4"],
    ["stability-polytope", "--n", "2", "--m", "4", "--degree", "2"],
    ["arrangement-bound", "--json", WEIGHTS],
    ["arrangement-bound", "--json", WEIGHTS_N3],
    ["diagonal", "--json", DIAGONAL, "--det-t", "2.0"],
    *(["diagonal", "--json", spec] for spec in DIAGONAL_EDGES),
    ["diagonal", "--json", DIAGONAL_BEYOND_DOUBLE],
    ["p1-zeta-height", "--json", P1_WEIGHTS],
    ["p1-zeta-height", "--json", P1_WEIGHTS, "--precision", "1e-8"],
    ["p1-zeta-height", "--json", P1_WEIGHTS, "--precision", "1e-10"],
    ["p1-zeta-height", "--json", P1_JSON_PRECISION],
    ["p1-zeta-height", "--json", P1_CONTINUATION],
    ["p1-zeta-height", "--json", P1_NEAR_MISS, "--precision", "1e-6"],
    ["volume", "--json", json.dumps({"batch": [json.loads(P2), json.loads(P3)]})],
    ["volume", "--preset", "p3", "--cut-normal", "1,1,1", "--cut-offset", "1/2"],
    ["volume", "--json", "[1, 2]"],
    ["volume", "--json", BOTH_KEYS],
    ["sx", "--json", OFF_ORIGIN],
    ["sx", "--json", HUGE_CLOUD],
    ["pn-height", "--n", "200000"],
    ["universal-bound", "--n", "1000000", "--volume", "1"],
    # the refusals of universal_height_bound, in the order it checks them
    ["universal-bound", "--n", "0", "--volume", "1"],
    ["universal-bound", "--n", "1", "--volume", "0"],
    ["universal-bound", "--n", "1", "--volume", "-1/2"],
]


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(argv) -> str:
    return hashlib.sha256(json.dumps(run(argv)).encode()).hexdigest()


DIGESTS = {
    'volume --preset p1':
        'e77ce155871711169025b150dd5f82a73359d581c6d33a00a0b807f8abdc5fc7',
    'barycenter --preset p1':
        '0c0ea85becb0d7432ee6e765d3059f4ce79fdf553b285aefe1e6897ae28a2234',
    'semistable --preset p1':
        'ebed25696185e7e1774811868f02500d3531c9cb2645857c5d5097a7d4b7e86f',
    'gap-check --preset p1':
        '2de0d67a9143101c4156f94e209eadffc8798893a95dbb6f7fba100c6598c59e',
    'volume --preset p1xp1':
        '22660014529b74b5a1f9772559356ee7c1aeb3b5d6049bcc86312d52c919a3bc',
    'barycenter --preset p1xp1':
        '32acf7bf7a3dd0ce26316246ac13802058243ca15e87981b6c19031ebed46620',
    'semistable --preset p1xp1':
        '5673bf9656bde0de488b893081b5fc2a950afe65fd3df8feb26a6fc8b6298943',
    'gap-check --preset p1xp1':
        'e8feab0a6ea8066c0d7491b78c5630606aeaad015e8fb6478e2b5747cec518ff',
    'volume --preset p2':
        '61acc5c9f0ff858e59bd060504731c2942302bd8ea27ef052729cebd7b0300c4',
    'barycenter --preset p2':
        '32acf7bf7a3dd0ce26316246ac13802058243ca15e87981b6c19031ebed46620',
    'semistable --preset p2':
        '5673bf9656bde0de488b893081b5fc2a950afe65fd3df8feb26a6fc8b6298943',
    'gap-check --preset p2':
        '2205e7a58443eec62c7e39b47218d30999821661289f71cee3beb4d85bc02c60',
    'volume --preset p2xp1':
        'd880f68e2c8bf22ca8577a231e0cc660d26df44ae5a4b3a4a9dd983ce33138d2',
    'barycenter --preset p2xp1':
        'bd05d061d05eb8c2208515d9a1351342f283d290a6fcb3bf0d7e10a32770c3e9',
    'semistable --preset p2xp1':
        '502ddb01771465a297ac94e580e9d7312c3061de94e29e3cc3c9b34d2e352f48',
    'gap-check --preset p2xp1':
        'e0cffc37a610aa184b856f9dd28a97f6b4079631c3010e0b6e7cd6f2fe38a0f2',
    'volume --preset p3':
        '01eb60d1b4813213238b232d0409106ce1c383bb5d0b152d0194274d4946cb55',
    'barycenter --preset p3':
        'bd05d061d05eb8c2208515d9a1351342f283d290a6fcb3bf0d7e10a32770c3e9',
    'semistable --preset p3':
        '502ddb01771465a297ac94e580e9d7312c3061de94e29e3cc3c9b34d2e352f48',
    'gap-check --preset p3':
        'b21614bf3167f0e15049cced63d657a7cc7bf00299bf5f9942fca39f5f27664b',
    'volume --preset p3-blowup':
        '728933c87f99a80d717b42cd66e6965e2b5ce93a64a5ea73154566a02eeec149',
    'barycenter --preset p3-blowup':
        'a7227041c65a8338aacff79b857cce3710f425f58d5899c7ec8aff9e7d1f3342',
    'semistable --preset p3-blowup':
        '36a3be0fde3eb795385cf6584414b61dc3387a36465c491eb0537047bedda377',
    'gap-check --preset p3-blowup':
        '5ccad5e28a3530f9616a32979dcb3943253e351ea405106916fcc8bf31c475c8',
    'volume --preset p4':
        '81cae099e661ad0cd9c3dc3920b796ed802fc87f5d546acbfd810f6cedfa044a',
    'barycenter --preset p4':
        '1e1a58bef5c932f511957f87175ece731026b3663dc388e553b55efc9a642c7b',
    'semistable --preset p4':
        '285165274e5cbdeb8ffe5fb16a43ba925f4a00396bf712ec2bc4de44c604b3e9',
    'gap-check --preset p4':
        'ba657a6c8b595f66907d461587598c9b25883939d80c7cc47377f4ca6b8f6873',
    'volume --preset p5':
        '928840a75537de472a0f261d2c4de99b823535f0c04e4daa33c32811ecfb8180',
    'barycenter --preset p5':
        '1db687e6bedaf8c8d57102b5c09feeddd6d928ed39522ab9a575e670a7e67505',
    'semistable --preset p5':
        'aec40e4e8634ccbe9b258ddf5969d5d64cfb2fc36bf1e202c9f889c3a61689cc',
    'gap-check --preset p5':
        '283cf256732ff5d3b2c448d08d2be7e955955e0dd03731bf867f5b2663df4a89',
    'volume --preset p6':
        '5ddf972ccbd1171965946557f8b0bb6af08d788a77ad982f0d0dc0d25bb3c238',
    'barycenter --preset p6':
        'ba535a250599b1d688eac5ef90bb12d4ecf0404a7261eb2ee9a3fb2c6c106f5d',
    'semistable --preset p6':
        'c8b8206a77186bda19cbc12f842cbe6725460f875087fe33da5529dc2ade9e9d',
    'gap-check --preset p6':
        '59b0f8c8a3c0606ebc5fa3105dd0fea8371c3db38cdb9be1d617f6bb99e7b3bb',
    'volume --preset po-o2':
        '60314aaec7b1502c83f9022cc291463ba6f9d9213d475f75bd4a1c028cf79081',
    'barycenter --preset po-o2':
        '9ce59b5816b73c0335fa5d5a1013faa32bae8d678f8432b607f107547063b409',
    'semistable --preset po-o2':
        '262e5f0ce9e5a278945b3a8ef6845c3db0e48d86a7afde4e66f57dba6804be02',
    'gap-check --preset po-o2':
        '5ccad5e28a3530f9616a32979dcb3943253e351ea405106916fcc8bf31c475c8',
    'gap-check --json \'{"dim": 2, "facets": [{"normal": [1, 1], "offset": "1"}, {"normal": [1, -2], "offset": "1"}, {"normal": [-2, 1], "offset": "1"}]}\'':
        '64965330298efb06551d82837abf6f26847e291ad76cdd492529e1bc819c9588',
    'sx --preset p3-blowup':
        'ff7ecdb2f27a0c339331d48043ff67c2e88e407240a61c4918a8bf842360ac08',
    'sx --preset po-o2':
        'f5da518409f6d2af8baccaef322ebfd668cae8bd4e428764eee319069ddfaa5a',
    'sx --preset po-o2 --format table':
        'f481c256421257f99c3fcd17da7c5f038515cee669752d1d10b47476d03273f6',
    'sx --preset p3-blowup --format csv':
        '5d25595f39a698fcadf5bb6e5b95bd9602bbfb5ced0fdaffdecbbff143365166',
    'sx --json \'{"dim": 3, "facets": [{"normal": [1, 0, 0], "offset": "1"}, {"normal": [0, 1, 0], "offset": "1"}, {"normal": [0, 0, 1], "offset": "1"}, {"normal": [0, 0, -1], "offset": "1"}, {"normal": [-1, -1, 2], "offset": "1"}]}\'':
        '901b3e6a37482318039e66f762b053636ddc87e9b7cbcb94c66b94e0407db03c',
    'reproduce-paper --format json':
        '5df9321c4dacbdd744e1ddfc20aca20d1af9e47045854d38ea45019230920ca0',
    'reproduce-paper --format csv':
        'c5c399fd04922843daa6c6c4df062abf22a68ac6d58aea2b2d7873667f0b03c0',
    'reproduce-paper --format table':
        '23f404cb45c6a9ab3515640f01991c8147a3098e1e2499d58bc3c69e93f6abd0',
    'reproduce-paper --perturb':
        'd7a8f3674472343549981bd1bb475f4fd0b52f174fea4dbfde687a4a59d08a82',
    'pn-height --n 3':
        '428f06a7346f336d6b0b8bb10971f94206791bc10e41410f9f92da6c348e080c',
    'pn-height --n 1':
        '6e0db2231797b1b0d376ee7643451a1726e5a558217a0b6f8fa262c9b1aa6b2d',
    'pn-height --n 60':
        '0d4adb55419d121d41c3d7c60be7e77b41fc5b484b8e81855e00434c9ab030c2',
    'pn-height --n 141':
        '77bb9fe2dd20288167e7ffdb01051133a54527ef675e4bba2dd1809c387d3827',
    'pn-height --n 142':
        '8e01cf3311b352f18f5fad51e4b3f7dbbcec9a24b8af9bc9d3225e3534cea80a',
    'scaled-height --n 3 --t 1/2':
        'e838e2e1a3dce77baa97b5c746e95b4ea87607bccc501673e42acc0eda56240f',
    'scaled-height --n 8 --t 7/12':
        'bfea7ee17742133ec8183715f6c95a09178a2d75e38e5adc37ef53dc0deaf8a0',
    'universal-bound --n 3 --volume 31/3':
        '286ea7cd439fe3afdfe27d9fed5615e5253fc9cec92118e40b1191731c7960ae',
    'stability-polytope --n 2 --m 4 --degree 4':
        'e85d3b7fe616d37cd8a04e8080478384723a5026d14919d0dc0b4d4e5366870f',
    'stability-polytope --n 2 --m 4 --degree 2':
        '634e157177499669d0f84216161904bc442046c2d7614986061e5712e66c5c9e',
    'arrangement-bound --json \'{"n": 2, "weights": ["1/2", "1/2", "1/2", "1/2"]}\'':
        '3d1318777c956bf3aee9ebe6ec21293694e0ef48c83801d74c98863eca68301f',
    'arrangement-bound --json \'{"n": 3, "weights": ["1/2", "1/2", "1/2", "1/2", "1/2"]}\'':
        '1260b9d4bd9194c19f1288c55fc019a902dfb04442a36fe7e39d998b3c1fea89',
    'diagonal --json \'{"n": 2, "d": 3, "a": [1, 1, 1, 8]}\' --det-t 2.0':
        '440e500477e624de4da4b8b3a0ef9f2473dc08a54bd62541ad50851af6478180',
    'diagonal --json \'{"n": 1, "d": 2, "a": [1, 1, 1]}\'':
        'a1e33865fe52240ea20105499c706e8e46b6d37c94c632a5d50ac845e4b99499',
    'diagonal --json \'{"n": 3, "d": 1, "a": [2, -3, 5, 7, 11]}\'':
        'a949cafdb36f02147576edf6c2604070424c42c61ba102406387d1fe28407980',
    'diagonal --json \'{"n": 4, "d": 5, "a": [-9, 2, 3, 5, 7, 1]}\'':
        'd7eb44d4049a7563244b87dce00799d427abd42fb7b1df5e7c4e2ab00a8359bd',
    shlex.join(["diagonal", "--json", DIAGONAL_BEYOND_DOUBLE]):
        '8e01cf3311b352f18f5fad51e4b3f7dbbcec9a24b8af9bc9d3225e3534cea80a',
    'p1-zeta-height --json \'{"weights": ["1/2", "1/3", "1/4"]}\'':
        'b038737a97b0c546aad909916eec80352e226cb3ff647a888b5d8c89da543c08',
    'p1-zeta-height --json \'{"weights": ["1/2", "1/3", "1/4"]}\' --precision 1e-8':
        'e10e6f61f59d75168a906a8408151c64ec88123cfb86cb3ab3c1e3fdb15a64c5',
    'p1-zeta-height --json \'{"weights": ["1/2", "1/3", "1/4"]}\' --precision 1e-10':
        'cde8b4bfaa554e4174e645b3161823bc886a9c184403428f5cc2ee40b61a89d4',
    'p1-zeta-height --json \'{"weights": ["1/2", "1/3", "1/4"], "precision": 1e-06}\'':
        'fc84ac0e90aa04806979615b3b9351ca0d28031078501bfd80071973404e1a54',
    'p1-zeta-height --json \'{"weights": ["11/12", "3/4", "2/3"]}\'':
        '77450dbd185f7713932b34ee6dae444c55709024c8c55bcfd3b6b65e3d10dcca',
    'p1-zeta-height --json \'{"weights": ["1/2", "1/4", "249/1000"]}\' --precision 1e-6':
        '4e4dd4511a178a0a5f601dc0309877d5d8faa01c59f96a777e9765ab1f453015',
    'volume --json \'{"batch": [{"dim": 2, "facets": [{"normal": [1, 0], "offset": "1"}, {"normal": [0, 1], "offset": "1"}, {"normal": [-1, -1], "offset": "1"}]}, {"dim": 3, "facets": [{"normal": [1, 0, 0], "offset": "1"}, {"normal": [0, 1, 0], "offset": "1"}, {"normal": [0, 0, 1], "offset": "1"}, {"normal": [-1, -1, -1], "offset": "1"}]}]}\'':
        '412ee0a666d7ea6bd8eb038c787b2fccd7e981036dcd5d3a754d5fa3096fa64a',
    'volume --preset p3 --cut-normal 1,1,1 --cut-offset 1/2':
        '6489d36e4232a5cdec2ced161fad8b770055dd8126cb4e0055313eb920738f76',
    "volume --json '[1, 2]'":
        '114635d5f60097567305d7eba3a9783b44f601f03b5344e68c822cfce35c4007',
    shlex.join(["volume", "--json", BOTH_KEYS]):
        '053630fd05985f7e45539e35d36dc495d554ee3fc77852e78a3563d3c54abd82',
    'sx --json \'{"dim": 2, "vertices": [[1, 1], [1, 2], [2, 1], [2, 2]]}\'':
        'ce8b1ec352278bc59ddc9a1543fef2b74876583a7626ac55e2528048990abf12',
    'sx --json \'{"dim": 3, "vertices": [[0, 1, 2], [1, 0, 1], [2, "-3/2", 0], [0, -1, "-100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"], [-3, -1, "100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"]]}\'':
        '8e01cf3311b352f18f5fad51e4b3f7dbbcec9a24b8af9bc9d3225e3534cea80a',
    'pn-height --n 200000':
        '8e01cf3311b352f18f5fad51e4b3f7dbbcec9a24b8af9bc9d3225e3534cea80a',
    'universal-bound --n 1000000 --volume 1':
        '8e01cf3311b352f18f5fad51e4b3f7dbbcec9a24b8af9bc9d3225e3534cea80a',
    'universal-bound --n 0 --volume 1':
        'a88c0397df54056cb7927bb8bdb8924cbb9f3069cc2938615727b36174aa6218',
    'universal-bound --n 1 --volume 0':
        'f95040f89768a741be09c6d9415cc654aa1e6d413643e38269a2d0209986a694',
    'universal-bound --n 1 --volume -1/2':
        'c9f4b47a485029fb4da51fa9a5a068a17e6bc0d2281e130804cb25b82deda8b8',
}


def test_every_case_is_pinned():
    assert set(DIGESTS) == {shlex.join(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=[shlex.join(a)[:48] for a in CASES])
def test_output_unchanged(argv):
    assert digest(argv) == DIGESTS[shlex.join(argv)]


@pytest.mark.parametrize("argv", CASES, ids=[shlex.join(a)[:48] for a in CASES])
def test_top_level_parse_gives_the_same_output(argv):
    # with no subparser to parse argv[1:] alone, run parses every argv whole
    with mock.patch.object(cli, "_SUBPARSERS", {}):
        assert digest(argv) == DIGESTS[shlex.join(argv)]


def test_reports_leave_no_cyclic_garbage():
    # a cycle per report would put a collection inside a timed request
    succeeding = [argv for argv in CASES if run(argv)[0] == 0]   # also the warm-up
    gc.collect()
    gc.disable()
    gc.freeze()   # so that each collection below walks only what the run made
    try:
        left = {}
        for argv in succeeding:
            run(argv)
            left[shlex.join(argv)] = gc.collect()
    finally:
        gc.unfreeze()
        gc.enable()
    assert len(succeeding) > 40
    assert {argv: n for argv, n in left.items() if n} == {}


if __name__ == "__main__":
    print("DIGESTS = {")
    for argv in CASES:
        print(f"    {shlex.join(argv)!r}:\n        {digest(argv)!r},")
    print("}")
