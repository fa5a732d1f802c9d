"""Byte-identity guard: every pipeline's artifact on a fixed graph set, and
deletability decisions on fixed targets.

The SHA-256 of each `PipelineReport.to_json()`, serialized with
`json.dumps(sort_keys=True)`, for the four pipelines on the corpus graphs and
the generalized Petersen graphs gp(8,3) and gp(10,3).  A refusal is recorded
as the class name of the exception raised.  Each `deletability_decide` entry
is its status, its node count and the SHA-256 of its witness JSON.  A change
that only makes the pipelines or the search faster must leave every entry
as it is; a change that moves an entry changes what the toolkit certifies
and must say so.
"""

import functools
import hashlib
import json
import random

import pytest

from orientcover.corpus import corpus_names, named_graph
from orientcover.errors import GraphToolkitError
from orientcover.exact import deletability_decide
from orientcover.multigraph import Multigraph
from orientcover.pipelines import certify_bf5, certify_color3, certify_esse4, certify_upper7
from orientcover.reduction import PAPER_EXAMPLE, build_gadget, fano_formula, parse_formula, preprocess

from oracles import generalized_petersen_pairs
from test_reduction import random_feasible_formula

PIPELINES = {
    "seven": certify_upper7,
    "esse4": certify_esse4,
    "color3": certify_color3,
    "bf5": certify_bf5,
}


def gp(n, k):
    return Multigraph.from_pairs(generalized_petersen_pairs(n, k))


def graph_by_name(name):
    if name.startswith("gp("):
        n, k = name[3:-1].split(",")
        return gp(int(n), int(k))
    return named_graph(name)


GOLDEN = {
    ("bipetersen", "seven"): "866f512d085798cbce9fabe1af6d521479d6bb1fe97bdd80f3ca3a304019c5ee",
    ("bipetersen", "esse4"): "PreconditionError",
    ("bipetersen", "color3"): "NotThreeEdgeColorableError",
    ("bipetersen", "bf5"): "f2b20194effb65220308428e5ef1fa2f263e544b624703069fee3523633b5893",
    ("cube", "seven"): "5b9b165f90602bd2cb8c7ab761f65ca17234527bb38e1f6b40b86ca3e210225b",
    ("cube", "esse4"): "e56d2a4403d57d0911746b7f7a1179bb071e4b58b805cb943ff475fc99fe4d0d",
    ("cube", "color3"): "28da15414a53f80ea554df23fd3233a72960b6c2d896e0bb03ae5180277d1a00",
    ("cube", "bf5"): "37633f497e79ee2ef4c4f171a99f84bc0bee96ce17f281966b9755146bab706d",
    ("double_k4", "seven"): "df6ddce2af21a2fe06e533c2e6d1b07903a7611fdd0b287092e4a7d5e8769f0d",
    ("double_k4", "esse4"): "PreconditionError",
    ("double_k4", "color3"): "PreconditionError",
    ("double_k4", "bf5"): "PreconditionError",
    ("hub_triangles", "seven"): "d305287c7eefa9289d2ff6cbbf7817b6f0c78235ac152fae99be033b5e10cc70",
    ("hub_triangles", "esse4"): "3e045783ca3b465a3784544198b3840cb786722a211cffa52efe023bb938601f",
    ("hub_triangles", "color3"): "PreconditionError",
    ("hub_triangles", "bf5"): "PreconditionError",
    ("k33", "seven"): "f32cd8e6442a9e01f84377eca0b92e1587361f1846a6a92e2e9c39af875eda18",
    ("k33", "esse4"): "523b3188c4a20a3aa838382781236a47ebe2aac5aa31196b7c320adac9c094fe",
    ("k33", "color3"): "5d702c9cc5f3e3fd9fa0720508eacedb86b5972bda6cce2a6b8ea42a56236ce7",
    ("k33", "bf5"): "c6e0b05bfe272c379519b9e71ab629da7ec354273309d366f24e8e2980381423",
    ("k4", "seven"): "749911bb0a97439acfaf1881ad57fb8484002fa44bc655677b5270bb8144c548",
    ("k4", "esse4"): "bf31625716aaadb7f6cc1abebae92d8ac871f462f902c092924908671e14d92f",
    ("k4", "color3"): "2a94bf4b9d78af8d3c6acb9f148c7d0cccf22c51d69e3b22a5a51d0d764416b0",
    ("k4", "bf5"): "9c50a03d8879f7f5e4f1c2f78066c94a21157492274fac729a51af7fd03ca87c",
    ("k5", "seven"): "26a52f636bec6cf979b704781f4ed830cef93303315a4ca70a2ac0087ea996a4",
    ("k5", "esse4"): "af3b7d7527e88614c73deb9620d2bc2730c67f481739a21eaee11553ae2c5c53",
    ("k5", "color3"): "PreconditionError",
    ("k5", "bf5"): "PreconditionError",
    ("moebius_kantor", "seven"): "0df3466f43a4e6eb95d523ff2d9fdc8ae38ac51034dca0cb1c18acba2b5ff229",
    ("moebius_kantor", "esse4"): "12b24dafae890627cf66c3722712af2369268a2f429bbde0a88beabefc845637",
    ("moebius_kantor", "color3"): "2607b52208897983762eec9ad367eaeecfa33a8a516441924e4b8a2e14a2c6bd",
    ("moebius_kantor", "bf5"): "b401894e27fe33bf43fcbf24b06b2bc7c712feea89d3067f27e534f1a351deff",
    ("petersen", "seven"): "ca1cea4b29da2e5891a52bb82fc6742efc814a86821c8fe5a1df74024191b462",
    ("petersen", "esse4"): "4c9e7b6bc18427add3f395879c7dfb1538f2f5b4e0dacd9b781337af315f1161",
    ("petersen", "color3"): "NotThreeEdgeColorableError",
    ("petersen", "bf5"): "3f65b4cd9e4012749d850d94f117c138ac70b5afb5067269696f3ebefd434bd9",
    ("prism3", "seven"): "c793def8a27e2c4192c32d456fdd2410b29bfe7170a3711132ff8d15e9f179b0",
    ("prism3", "esse4"): "PreconditionError",
    ("prism3", "color3"): "8783780ddbe2f2f6fa64dbab990ceef17074dd62952f1fe994eab1d308df23eb",
    ("prism3", "bf5"): "bbbfc9cdd7a5783493ba0fc4830204af7b542d2d80143e8c3aedb9eed0c1ff29",
    ("theta", "seven"): "e557102a2b6dfb1ab439b8245e225ed56d2ee1aa733ae1732b76b48fd1946f2c",
    ("theta", "esse4"): "47c5952cf55c6cb865622095623e8cbf236e06619fa886ece7fb4e0539c67168",
    ("theta", "color3"): "10774788b687289f66ad20b6e33b13e4c97d6ff7e48a56a6fde91d49eb671757",
    ("theta", "bf5"): "6751c052a18766758cc171eb50f1dd5a946fab173385f72cd8491f02f36eb75e",
    ("wheel4", "seven"): "b41766913a73198d6675030abdc976ad73eb33b616d3a92c9bd2dfe528fd2ec4",
    ("wheel4", "esse4"): "ddc1c468a9e4ac71d51ec6639a61136635210d6157f680d03c61a4c108e92b15",
    ("wheel4", "color3"): "PreconditionError",
    ("wheel4", "bf5"): "PreconditionError",
    ("wheel5", "seven"): "86101247ee55bbe001459ddb8df6e9afeea5ce67734ebf2fbe4caabb1ac5a7a0",
    ("wheel5", "esse4"): "1d168ab7f109b38c0e6d15528ad09748a4ee3b1db4ab6d4fc379f3f8be7ea202",
    ("wheel5", "color3"): "PreconditionError",
    ("wheel5", "bf5"): "PreconditionError",
    ("gp(8,3)", "seven"): "a305935c6f5f49aa3818ac28c0393fc52bac13c71ab0331a1cde791d2f532b10",
    ("gp(8,3)", "esse4"): "3d779952596319e56606fc2301a0f8f13590e2d6e2ee58731775c71d8f149514",
    ("gp(8,3)", "color3"): "0b6de2893711977cf357d219d79c99df850571edbbcbefb83d2a97929d6bc426",
    ("gp(8,3)", "bf5"): "3b62fdb69c038c6c2b3f230d9de3822be6f85c07998a5c6a7b144a4526ba11d6",
    ("gp(10,3)", "seven"): "b31f313ffe5fe1714388c1d40c0f15497b0ec30e3e53b38e685a1a1daf3a869a",
    ("gp(10,3)", "esse4"): "eefd02513534a9aa573aa09752b08bee83826d5f3e139e46208121aab4c37979",
    ("gp(10,3)", "color3"): "5f6ee3c308d0e175ea85adf33c3644cc283a6aa1df67fce04d272c09c348937f",
    ("gp(10,3)", "bf5"): "bc72a4aa85613ba57367bd903146040f7a0f9a7d8fa5c1020c883392cc45853f",
}


def artifact_digest(pipeline, g):
    try:
        report = pipeline(g)
    except GraphToolkitError as exc:
        return type(exc).__name__
    text = json.dumps(report.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_graph_and_pipeline():
    names = set(corpus_names()) | {"gp(8,3)", "gp(10,3)"}
    assert set(GOLDEN) == {(g, p) for g in names for p in PIPELINES}


@pytest.mark.parametrize("graph_name,pipeline", sorted(GOLDEN), ids=lambda x: x)
def test_pipeline_artifact_unchanged(graph_name, pipeline):
    g = graph_by_name(graph_name)
    assert artifact_digest(PIPELINES[pipeline], g) == GOLDEN[(graph_name, pipeline)]


# -- deletability decisions ---------------------------------------------------------

# One known-yes and one known-no target per corpus graph; on graphs of at most
# 15 edges both answers agree with oracles.brute_deletability.  k5 has no NO
# target: with edge connectivity 4 it has a 2-arc-connected orientation, so
# every set is deletable.  The NO targets of theta and hub_triangles are vertex
# stars, refuted at the root in 0 nodes.
DECIDE_TARGETS = {
    "bipetersen": ([0, 6, 16, 17, 18, 25, 26], [14, 17, 18, 21, 22, 26]),
    "cube": ([5, 8], [1, 2, 3, 6, 8, 10, 11]),
    "double_k4": ([4, 5, 8, 11], [5, 7, 8, 11]),
    "hub_triangles": ([8, 9, 11], [0, 1, 7]),
    "k33": ([3, 6], [1, 2, 3, 7, 8]),
    "k4": ([0, 1], [1, 2, 5]),
    "k5": ([1, 5], None),
    "moebius_kantor": ([1, 9, 11, 19], [2, 5, 9, 10, 11, 12, 13, 16, 21, 22]),
    "petersen": ([0, 2, 5, 8, 12, 14], [0, 3, 5, 6, 7, 9, 11, 14]),
    "prism3": ([0, 1, 4], [1, 5, 6, 7, 8]),
    "theta": ([0, 1], [0, 1, 2]),
    "wheel4": ([2, 5], [0, 1, 3, 5, 6]),
    "wheel5": ([0, 1, 4, 5, 7], [0, 1, 2, 4, 7, 8]),
}


@functools.lru_cache(maxsize=None)
def decide_instances():
    """{key: (graph, target)}: the corpus targets, the paper and Fano gadgets,
    and the seeded gadgets of test_reduction's 1,000-node test."""
    out = {}
    for name, targets in DECIDE_TARGETS.items():
        for answer, s in zip(("yes", "no"), targets):
            if s is not None:
                out[f"{name}:{answer}"] = (named_graph(name), s)
    for key, f in (("paper", parse_formula(PAPER_EXAMPLE)), ("fano", preprocess(fano_formula()))):
        inst = build_gadget(f)
        out[f"gadget:{key}"] = (inst.graph, inst.s)
    rng = random.Random(4031)
    for num_clauses in (3, 4, 5, 6):
        for k in range(3):
            inst = build_gadget(random_feasible_formula(rng, num_clauses))
            out[f"gadget:{num_clauses}:{k}"] = (inst.graph, inst.s)
    return out


def decide_digest(g, s):
    result = deletability_decide(g, s)
    witness = None
    if result.orientation is not None:
        text = json.dumps(result.orientation.to_json(), sort_keys=True)
        witness = hashlib.sha256(text.encode()).hexdigest()
    return (result.status.value, result.nodes, witness)


GOLDEN_DECIDE = {
    "bipetersen:no": ("no", 6656, None),
    "bipetersen:yes": ("found", 27, "f9d33002b2d6f3c15cb9c6b8fcb187620e0673c745002a063d3f60f9a71dfc90"),
    "cube:no": ("no", 7, None),
    "cube:yes": ("found", 7, "2dfd2c9eea575e66b2e9042e3a23303beac30c3a6aed190cd1d580a6f70d3781"),
    "double_k4:no": ("no", 127, None),
    "double_k4:yes": ("found", 18, "d9090bd0eb1f83735ee3797afc37ab692749c9293ed9a15aabf6c55a810f3588"),
    "gadget:3:0": ("found", 22, "b1df2a3f394f40514441d76b1041f66c6664d4777df3bfc59b5b4485c594b85c"),
    "gadget:3:1": ("found", 22, "b1df2a3f394f40514441d76b1041f66c6664d4777df3bfc59b5b4485c594b85c"),
    "gadget:3:2": ("found", 20, "36a8a049c9ae14dd13434d34880ebd62b48366dbdca94f548738b3f7e62e7565"),
    "gadget:4:0": ("found", 28, "de1d9b13bea6935fb984005e6c5afc78380ce4012f9dc1fe24c05170d4af2f3e"),
    "gadget:4:1": ("found", 30, "d2a79a82148e4d607fbdec967409bb6a7df323e76cf3e2c0c1da72ea84ff2676"),
    "gadget:4:2": ("found", 30, "d2a79a82148e4d607fbdec967409bb6a7df323e76cf3e2c0c1da72ea84ff2676"),
    "gadget:5:0": ("found", 35, "3bd9e579cbe229af002a216916ff604a253a7a4b9e2ad39541692881791c1200"),
    "gadget:5:1": ("found", 34, "2e24d18dab387c6ae80a733c6ec620b50f97f745aed9874484ce5b91e71e9aee"),
    "gadget:5:2": ("found", 36, "eea0413069d97f0ad2ff13c252046543e7919a259079d459ad8a140565d66b45"),
    "gadget:6:0": ("found", 40, "7053de113239ddd225c4b4ccf5547340ce60d1bb5e3216ff6c11c408292d53f4"),
    "gadget:6:1": ("found", 44, "8cabe1295601ba78964b3b662434db1b1159be012aa28f998968b90375fb673e"),
    "gadget:6:2": ("found", 42, "52405657841e0df6d8391618b1a0586f9c61d7d92f6cace281d62de05d76849d"),
    "gadget:fano": ("no", 204, None),
    "gadget:paper": ("found", 22, "16f6214df461b10a08b803c273f5bd656c79c83860e6db18e8273924541d6647"),
    "hub_triangles:no": ("no", 0, None),
    "hub_triangles:yes": ("found", 14, "f5ba25069a37e17a6e12b8c38a1c9676f2029435d875b9d7b260896b4ea08c69"),
    "k33:no": ("no", 5, None),
    "k33:yes": ("found", 5, "c09ad13c1daa1974d85c7b307a4eef7f963e9ebcdf30b4b9d3fd3d16e670cfd3"),
    "k4:no": ("no", 3, None),
    "k4:yes": ("found", 4, "9cc601fa312ae0d23efa9b1ba233347cb4085e5d2dd77527c21da27239139446"),
    "k5:yes": ("found", 9, "5fbe375010f7864e82dae575c3e7841c4bf08863921653820e246ccb95180896"),
    "moebius_kantor:no": ("no", 77, None),
    "moebius_kantor:yes": ("found", 16, "6433b958983ad83db02cc0c3f35ac25ac07baf1094ea564032492b6777a44b7d"),
    "petersen:no": ("no", 9, None),
    "petersen:yes": ("found", 19, "f56cb59aef6b85fcc657f5e36093c41724354b55370bccb00228736c82b2e6c2"),
    "prism3:no": ("no", 5, None),
    "prism3:yes": ("found", 6, "dc3322792598ddfa58e11649f949ecf197d2acb43b331419cba53b8d3b5234f3"),
    "theta:no": ("no", 0, None),
    "theta:yes": ("found", 3, "ef1c33e91747eefdc17997cf65da45a2a6076a058e831249a53f31ce2931754c"),
    "wheel4:no": ("no", 9, None),
    "wheel4:yes": ("found", 6, "c746c0f865cd09c0a1d9bf3aefcbe049402c26fcd0c733cfb0b606051d23839b"),
    "wheel5:no": ("no", 23, None),
    "wheel5:yes": ("found", 21, "058ca45ae2f7f3386a1dc771d9a6ecd8e8776626b2c3d7858adefa74d3b9dac4"),
}


def test_golden_decide_covers_every_instance():
    assert set(GOLDEN_DECIDE) == set(decide_instances())


@pytest.mark.parametrize("key", sorted(GOLDEN_DECIDE))
def test_decision_unchanged(key):
    assert decide_digest(*decide_instances()[key]) == GOLDEN_DECIDE[key]
