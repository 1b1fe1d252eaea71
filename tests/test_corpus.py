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
    Evidence,
    GenConfig,
    LiftcompError,
    Query,
    generate_fg,
    perturb,
    phase1_group,
    query_lifted_star,
    query_ve,
    run_acp,
    run_eacp,
)
from liftcomp.bench import HUB
from liftcomp.pfgio import pfg_to_json

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
