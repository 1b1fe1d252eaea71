"""Golden digest of compression outputs on a fixed corpus of seeded stars.

Any change to grouping, colour passing, the mean update or parfactor
construction that is meant to keep behaviour must leave these digests
unchanged: they hash phase-1 groupings, final groupings and alignments,
m_prime table bytes, parfactor graphs and run_acp groupings bit for bit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from liftcomp import (
    EPS_DOMAIN,
    Evidence,
    GenConfig,
    LiftcompError,
    Query,
    distance_exact,
    generate_fg,
    perturb,
    phase1_group,
    query_lifted_star,
    query_enumerate,
    query_ve,
    run_acp,
    run_eacp,
    worst_case_fg,
)
from liftcomp import grouping
from liftcomp.acp import colour_pass, initial_factor_colours_exact
from liftcomp.bench import HUB
from liftcomp.io import pfg_to_json

from conftest import free_star, partition_colours

EPS = 0.1

# (k, x, seed) -> sha256 hex digest
GOLDEN = {
    (8, 0.1, 0): "971dba0dc5aaf0187db7b5cef623318ae457be7efe0eaab896583fecc8d5c025",
    (8, 0.1, 1): "d41c32a04e078b75fe3ef14f43364e958776d41ae46e01e3dc251e4eb98f4741",
    (8, 1.0, 0): "f456143749824f96e0ec3a85979eb13699d830f9359aa081927fd9488b7d5550",
    (8, 1.0, 1): "8536e802666c9d4d3ebf91d6c137fc7c1f413dfbfcaae705a898f67692678ed9",
    (16, 0.1, 0): "cb4c4f12646891a746444215d0d59b002a9dfb3d6af669ac82c72938a60b9d84",
    (16, 0.1, 1): "4827363080a7147b45849a2de3cc2014b3045f5c526be2479455d43699badf3f",
    (16, 1.0, 0): "67d257925a1207db1e04d896b70d4f7868cf877c1ee162ba8ee41475581a29d1",
    (16, 1.0, 1): "b5de3bac079cc3893d9271bcd25c4b44201ea1bea0b57723c78e6ffb69bdca77",
    (32, 0.1, 0): "f4847acfe3dec51ad5984644c5b98eb74da82014823012e1dbd6618c7632176e",
    (32, 0.1, 1): "2a93554c5427baca7d25e6b1be863e27e0d89946bf65037e06731a8d393e6026",
    (32, 1.0, 0): "f27c847cbc2fc6f521bcb92eeaf574ddc3d83966bae017882d8a7e3b3530865c",
    (32, 1.0, 1): "a9b4a443a55503009e7b63ab65cfcf939372696deca801df4c82e57a23d7e89d",
}


def _hash_grouping(h, grouping) -> None:
    for group in grouping.groups:
        h.update(repr([(m.factor, m.align) for m in group]).encode())
    h.update(b";")


def corpus_digest(k: int, x: float, seed: int) -> str:
    cfg = GenConfig(k=k, x=x, eps=EPS, seed=seed)
    fg = perturb(generate_fg(cfg), cfg)
    h = hashlib.sha256()
    _hash_grouping(h, phase1_group(fg.factors, EPS))
    comp = run_eacp(fg, EPS)
    _hash_grouping(h, comp.grouping)
    for f in comp.m_prime.factors:
        h.update(f"{f.name}{f.args}{f.table.shape}".encode())
        h.update(f.table.tobytes())
    h.update(json.dumps(pfg_to_json(comp.pfg), sort_keys=True).encode())
    _hash_grouping(h, run_acp(fg).grouping)
    return h.hexdigest()


@pytest.mark.parametrize("k,x,seed", sorted(GOLDEN))
def test_corpus_digest(k, x, seed):
    assert corpus_digest(k, x, seed) == GOLDEN[(k, x, seed)]


def phase1_digest(k: int, seed: int, eps: float) -> str:
    cfg = GenConfig(k=k, x=0.1, eps=EPS, seed=seed)
    fg = perturb(generate_fg(cfg), cfg)
    h = hashlib.sha256()
    _hash_grouping(h, phase1_group(fg.factors, eps))
    return h.hexdigest()


# (k, seed, eps) -> sha256 of the phase-1 grouping of the x=0.1 star;
# recorded before repeated tables reused their earlier grouping decisions
PHASE1_GOLDEN = {
    (64, 0, 0.05): "20c58c88b2c5a6a1c2ac485ccbfc8bc2135b80db80912037c43ee2a7ee819304",
    (64, 0, 0.1): "0b7804ce8ae41f79f53c24dba3004a656ffff125871c57d304e91575415f9661",
    (64, 0, 0.3): "d81ddee7556aca956b5056bc07e7c0a0f1446280ee45d559755dbac27a121d3c",
    (64, 1, 0.05): "ebd31df16aff96a7ca33843f383439134e50c2bbb37bed7df37b65628008dc09",
    (64, 1, 0.1): "2abf2f469178f8fe581dd3a4e80d5e8848f3b50adf5ccee1e002a8bef3929dcf",
    (64, 1, 0.3): "2c2d52a795de7d763d82dc756de99ebcf98eac2815c42494f59deb4b6bc24b34",
    (64, 2, 0.05): "3602b4ecb5f1faa53d29a823abf18b2ece03d20a9e530bc4aaff3071412629f2",
    (64, 2, 0.1): "de40ca3470066b8f05dd3ee159123229608fa617f61a6dff0e30f08eb0d894df",
    (64, 2, 0.3): "d81ddee7556aca956b5056bc07e7c0a0f1446280ee45d559755dbac27a121d3c",
    (128, 0, 0.05): "7857bdb80a3fff53fe7a2d8953b572105d131308329fa0dfaeb04e947f048cf6",
    (128, 0, 0.1): "8e7d7cbadc7c9e6498814a39f5ca1c15efb8cfbf16321cc6d965057e67e0a47a",
    (128, 0, 0.3): "a803cf616fe82fa905ea7880b941f511cb430ef8553cc705d886cff13591c973",
    (128, 1, 0.05): "d1492fe93b868d1510ee2ef964526a6a6ab6eeef00a6991061236e16ca774b9d",
    (128, 1, 0.1): "948894d56f906a6ff3b0f2405276954b4df20e492ca127828a32578ea920cf1a",
    (128, 1, 0.3): "b037d1a47578f97cfc15324f0c394946eb9b4b4507b666e10f3ae5e8600a820a",
    (128, 2, 0.05): "33a025aa9c5fc94d860da1e484f541f412d8f5b50a5c46801f480defa44a9bd4",
    (128, 2, 0.1): "a4e231d925db1602631795bc1d2bc7f315d60c581d9fa03c4eeabdf46792a29f",
    (128, 2, 0.3): "a803cf616fe82fa905ea7880b941f511cb430ef8553cc705d886cff13591c973",
}


@pytest.mark.parametrize("k,seed,eps", sorted(PHASE1_GOLDEN))
def test_phase1_digest(k, seed, eps):
    assert phase1_digest(k, seed, eps) == PHASE1_GOLDEN[(k, seed, eps)]


def test_repeated_tables_skip_band_test(monkeypatch):
    # a k=128 star with 3 links per chain: 384 factors over a few distinct
    # tables; the band test runs for the first two copies of each table and
    # after a change to the groups a repeat's last decision depended on
    calls = []
    band_matches = grouping.band_matches

    def counting(table, stacks, eps):
        calls.append(table)
        return band_matches(table, stacks, eps)

    monkeypatch.setattr(grouping, "band_matches", counting)
    cfg = GenConfig(k=128, x=0.1, eps=EPS, seed=11)
    factors = perturb(generate_fg(cfg), cfg).factors
    assert len(factors) == 384
    phase1_group(factors, EPS)
    assert len(calls) <= 0.4 * len(factors)


def colour_digest(k: int, x: float, seed: int) -> str:
    """Colour passing under both seedings, with and without evidence."""
    cfg = GenConfig(k=k, x=x, eps=EPS, seed=seed)
    fg = perturb(generate_fg(cfg), cfg)
    observed = fg.rvs[2]
    phase1 = phase1_group(fg.factors, EPS)
    seedings = (
        (phase1.group_index(), phase1.alignments(), EPS),
        (*initial_factor_colours_exact(fg.factors), 0.0),
    )
    h = hashlib.sha256()
    for colours, alignments, eps in seedings:
        for evidence in (Evidence(), Evidence(((observed.name, observed.range[0]),))):
            cp = colour_pass(fg, colours, evidence, alignments=alignments, eps=eps)
            rv_colours, factor_colours = partition_colours(fg, cp)
            h.update(
                repr((rv_colours, factor_colours, cp.state.iteration, cp.rv_classes)).encode()
            )
            _hash_grouping(h, cp.grouping)
    return h.hexdigest()


# (k, x, seed) -> sha256 of node colours (each node's group or class
# number), round counts, RV classes and final groupings;
# recorded before colour refinement moved from name-keyed dicts to integer slots
COLOUR_GOLDEN = {
    (8, 0.1, 0): "10fb078607c30b52dc3b6902412f8e2bceac101747c14bc7301eb589bddeab2d",
    (8, 0.1, 1): "e5f2abfe70247060eeefadd6b89b7ed4207280adf8f812e7858578a797e3d8d4",
    (8, 1.0, 0): "d7ba666449b18eb64f6319125908c39a2d5136a348fea6be91ac4871c2e1b8e9",
    (8, 1.0, 1): "7b82afd0318a6ccf31ee53dbf34fb04691cede4450ca35d1a3e92013eaa545da",
    (16, 0.1, 0): "c0acc880115b4cf248fdc23e8a60b9c587fc6b6ee95fd7529db2651f7ece6ff8",
    (16, 0.1, 1): "f9143a7af0020f254097455d7a5d780de1f2942357c8dcfe75902b361b89f3c6",
    (16, 1.0, 0): "7612ccc98959e86834b30ac4027265b77684f2313678399783508491e2f9c2fb",
    (16, 1.0, 1): "832d54629da293dad86bb4a36d9901d13758a12068f1cd478bc386bfc40b422a",
    (32, 0.1, 0): "4399f0faec9f64ea9fa5e55195e925a7d0881245cae9e0b4d5402332550f4c85",
    (32, 0.1, 1): "43bc827a38e410d594bfd028bf74468206d85c793fd97cbe7386ea65cad92a8f",
    (32, 1.0, 0): "37387a6cf9f0223c27d66532b595b9e9a8cdc5451b8c8f0ca0be09c06d811e0d",
    (32, 1.0, 1): "50806784ceb9587121feb7585455b1034830142be4844ad08097c4f43b197f78",
}


@pytest.mark.parametrize("k,x,seed", sorted(GOLDEN))
def test_colour_digest(k, x, seed):
    assert colour_digest(k, x, seed) == COLOUR_GOLDEN[(k, x, seed)]


# (k, x) -> sha256 of query answers on the compressed models of seed 0;
# recorded before the pipelines, the elimination kernel and the histogram
# index were merged
QUERY_GOLDEN = {
    (8, 0.1): "a02d51e0574fdacf07789d50ffe0ba6cddc6d0f3c8615f804bbc0f9befbe5051",
    (8, 1.0): "78cd1a048cb0e6ec9e7c2fb5f35909aa9705d45ba1800ce8c6ecfa3812905015",
    (16, 0.1): "56b1cc70ebca595c49c3f58d100e1f33b14d59b4542cada2aa42ff17a6d880c1",
    (16, 1.0): "a1991e84ad4605fd456c993723951b5e47684d4b63f5937b315a0a19fe5c362a",
    (32, 0.1): "8e7b538e32c003d5a3deec5d05f5d44be88f02a01d43aa9ffef5e3f5655900de",
    (32, 1.0): "cb868c3fcde3d9c31e24fc22923117104c5eb8ebc9dc48596927e90677e20287",
}


def _hash_answer(h, run) -> None:
    try:
        res = run()
    except LiftcompError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
    else:
        h.update(repr((list(res.distribution.values()), res.ops)).encode())
    h.update(b";")


def query_digest(k: int, x: float) -> str:
    cfg = GenConfig(k=k, x=x, eps=EPS, seed=0)
    fg = perturb(generate_fg(cfg), cfg)
    names = [rv.name for rv in fg.rvs]
    targets = [names[1], names[len(names) // 2], names[-1], HUB]
    observed = [None, names[2], None, names[-2]]
    h = hashlib.sha256()
    for comp in (run_eacp(fg, EPS), run_eacp(fg, 0.0), run_acp(fg)):
        _hash_answer(h, lambda: query_lifted_star(comp.pfg, HUB, Query(HUB)))
        for target, seen in zip(targets, observed):
            evidence = Evidence(((seen, "true"),)) if seen else Evidence()
            _hash_answer(h, lambda: query_ve(comp.m_prime, Query(target, evidence)))
        h.update(repr(sorted(comp.per_group_max_rel_dev.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("k,x", sorted(QUERY_GOLDEN))
def test_query_digest(k, x):
    assert query_digest(k, x) == QUERY_GOLDEN[(k, x)]


# certification inputs: worst_case_fg(m, eps), and free stars (k, depth)
# with 2^17 and 2^21 joint states like the benchmark's
CERT_CASES = [("worst", m, eps) for m in range(2, 7) for eps in EPS_DOMAIN] + [
    ("free", 4, 4),
    ("free", 5, 4),
]


def certification_digest(kind: str, a: int, b) -> str:
    fg, eps = (worst_case_fg(a, b), b) if kind == "worst" else (free_star(a, b, EPS), EPS)
    m_prime = run_eacp(fg, eps).m_prime
    h = hashlib.sha256()
    if kind == "free":
        for f in m_prime.factors:
            h.update(f"{f.name}{f.args}".encode())
            h.update(f.table.tobytes())
    report = distance_exact(fg, m_prime)
    h.update(
        repr(
            (
                report.d_exact,
                report.max_ratio,
                report.min_ratio,
                sorted(report.argmax_assignment.items()),
                sorted(report.argmin_assignment.items()),
            )
        ).encode()
    )
    first, last = fg.rvs[0], fg.rvs[-1]
    queries = (Query(first.name), Query(last.name, Evidence(((first.name, first.range[-1]),))))
    for model in (fg, m_prime):
        for q in queries:
            res = query_enumerate(model, q)
            h.update(repr((list(res.distribution.items()), res.ops)).encode())
    return h.hexdigest()


# recorded before the joint table was built as a prefix product
CERT_GOLDEN = {
    ('worst', 2, 0.001): "e4cc2ebe8454103095fa1127b3042229468b910e76e82129b1cf2ca2948cca05",
    ('worst', 2, 0.01): "13ec0797fe0953820f0bfdd638bea9415a8d07e58a5c631df67fce9a2e1a14e1",
    ('worst', 2, 0.1): "698a5fa39d671dd7c85e1ace184a0781ed268e9f9e405784ebbf0665d279b4a3",
    ('worst', 3, 0.001): "c34e83c9fa1a6a37da3ecd1ec8e4ced0924b46683227235df44e35e1df76b783",
    ('worst', 3, 0.01): "c6e3534a29c8a362c36bf0c4a27cdca5f8b789b8590456cfd4fdd1a9f7184e5a",
    ('worst', 3, 0.1): "ca640a9f512c326162e3ba8273e604074683948190b34a19ff1ce0796c7141f7",
    ('worst', 4, 0.001): "5b6265afb90fbbfdf6fdd2b4f7c5ca458f24cb44ea9203ab9c1ce8ef6e5bf9f2",
    ('worst', 4, 0.01): "094d5eec61ca7a491077c73c637756e6e849b3afdade292a9c8905b63c616aa4",
    ('worst', 4, 0.1): "17e46f170d731423ccc5faf502898c31ff74b044a96ede56995d76fc3f13d906",
    ('worst', 5, 0.001): "75e009ad93fdbb62c36bfbd6e87742945863a1bc55e596804cc43ee84659f5d1",
    ('worst', 5, 0.01): "9a38c67c1fa31a2fc035e44e6926cdd001c053e37cae11b6eb7a12d80d646d35",
    ('worst', 5, 0.1): "b22857ab22bee7693b7bfad97df10879811a6d684bf4ad4108adf767d6c373bb",
    ('worst', 6, 0.001): "b7366db1ecde488f3d7113252a10fbc9065597c32a202cba94d69fbe59a0cbfe",
    ('worst', 6, 0.01): "696e7c38eca4a2d43afdfd1516e34acd16d6ffba7c909f328edba2a89e9f6446",
    ('worst', 6, 0.1): "66d540db6c870d936713f81acb17b643391e96a549f719048eabf2e3691ff3c9",
    ('free', 4, 4): "89cca4c81bc2395c0564b1054d3700e17338f0d31e53172fdb5571e51db922d2",
    ('free', 5, 4): "6f7a625c2cb3d2f2e52b5ce57bd4e7a7daccd439125b521532f6c55dbcdc0719",
}


@pytest.mark.parametrize("kind,a,b", CERT_CASES)
def test_certification_digest(kind, a, b):
    assert certification_digest(kind, a, b) == CERT_GOLDEN[(kind, a, b)]
