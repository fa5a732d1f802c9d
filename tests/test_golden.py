"""Byte-identity guard: every pipeline's artifact on a fixed graph set.

The SHA-256 of each `PipelineReport.to_json()`, serialized with
`json.dumps(sort_keys=True)`, for the four pipelines on the corpus graphs and
the generalized Petersen graphs gp(8,3) and gp(10,3).  A refusal is recorded
as the class name of the exception raised.  A change that only makes the
pipelines faster must leave every entry as it is; a change that moves an
entry changes what the toolkit certifies and must say so.
"""

import hashlib
import json

import pytest

from orientcover.corpus import corpus_names, named_graph
from orientcover.errors import GraphToolkitError
from orientcover.multigraph import Multigraph
from orientcover.pipelines import certify_bf5, certify_color3, certify_esse4, certify_upper7

from oracles import generalized_petersen_pairs

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
    ("k33", "color3"): "b022da89c2c36485df79baa3f6a7e0e58f8e80a38362a8a52cf05eb2211bdf29",
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
    ("wheel5", "esse4"): "ce39f49c16eee6781d01a874a30764e9569d07f1f9727cba7c159e0356522f2d",
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
