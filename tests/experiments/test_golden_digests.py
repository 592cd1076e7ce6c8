"""Cross-commit golden digests: artefacts pinned as literal sha256 values.

The determinism suites compare worker counts (or kill schedules) *within*
one commit, so a change that shifts every run the same way passes them.
This file pins the artefacts themselves — canonical decisions and traces of
``test_histogram`` (both backends) and ``test_closeness``, one seeded chaos
replay's canonical service report, and one ``SweepSpec`` fingerprint with
its shard ids — as digests recorded before a refactor.  A refactor that is
meant to be behaviour-preserving must leave every digest unchanged; a PR
that changes one on purpose must say why and re-pin it.

Canonicalisation is the one the determinism suites use: decisions are the
verdict's decision fields (wall-clock ``stage_timings`` excluded, numpy
payloads by their bytes), traces go through ``canonical_jsonl``, the serve
report through ``ServiceReport.canonical_json``, and the spec fingerprint
through ``json.dumps(..., sort_keys=True)``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.closeness import test_closeness
from repro.core.config import TesterConfig
from repro.core.tester import test_histogram
from repro.distributed.spec import SweepSpec
from repro.distributions.discrete import DiscreteDistribution
from repro.experiments.sweeps import StaircaseWorkload
from repro.experiments.workloads import make, make_pair
from repro.observability.trace import RecordingTracer, canonical_jsonl
from repro.serve import ChaosConfig, TesterService, build_requests

CONFIG = TesterConfig.practical()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _array(a) -> "str | None":
    """Exact identity of a numpy payload: dtype, shape and raw bytes."""
    if a is None:
        return None
    a = np.asarray(a)
    return f"{a.dtype.str}{a.shape}:{_sha(a.tobytes().hex())}"


def _float(x) -> "str | None":
    return None if x is None else float(x).hex()


def _sieve(s) -> "dict | None":
    if s is None:
        return None
    return {
        "rejected": s.rejected,
        "reason": s.reason,
        "kept": _array(s.kept),
        "removed": _array(s.removed),
        "rounds": s.rounds,
        "samples_used": s.samples_used,
        "final_statistic": _float(s.final_statistic),
    }


def _chi2(c) -> "dict | None":
    if c is None:
        return None
    return {
        "accept": c.accept,
        "statistic": _float(c.statistic),
        "threshold": _float(c.threshold),
        "m": _float(c.m),
        "interval_statistics": _array(c.interval_statistics),
        "samples_used": c.samples_used,
    }


def _pmf(h) -> "str | None":
    return None if h is None else _array(h.to_pmf())


def _decision(v) -> dict:
    """Every decision-relevant field of a verdict (no wall clock)."""
    return {
        "accept": v.accept,
        "stage": v.stage,
        "reason": v.reason,
        "samples_used": v.samples_used,
        "k": v.k,
        "eps": _float(v.eps),
        "stage_samples": sorted(v.stage_samples.items()),
        "partition": None if v.partition is None else _array(v.partition.boundaries),
    }


def identity_digests(dist, k, eps, seed, backend) -> tuple[str, str]:
    tracer = RecordingTracer()
    v = test_histogram(dist, k, eps, config=CONFIG, rng=seed, backend=backend, trace=tracer)
    decision = {
        **_decision(v),
        "learned": _pmf(v.learned),
        "sieve": _sieve(v.sieve),
        "chi2": _chi2(v.chi2),
    }
    return _sha(json.dumps(decision, sort_keys=True)), _sha(canonical_jsonl(tracer.export()))


def closeness_digests(name, n, k, eps, seed) -> tuple[str, str]:
    p, q = make_pair(name, n, k, eps, np.random.default_rng(0))
    tracer = RecordingTracer()
    v = test_closeness(p, q, k, eps, config=CONFIG, rng=seed, trace=tracer)
    decision = {
        **_decision(v),
        "samples_p": v.samples_p,
        "samples_q": v.samples_q,
        "learned_p": _pmf(v.learned_p),
        "learned_q": _pmf(v.learned_q),
        "sieve_p": _sieve(v.sieve_p),
        "sieve_q": _sieve(v.sieve_q),
        "chi2": _chi2(v.chi2),
    }
    return _sha(json.dumps(decision, sort_keys=True)), _sha(canonical_jsonl(tracer.export()))


def _staircase():
    return StaircaseWorkload(512, 4)(np.random.default_rng(0))


def _dirichlet():
    return DiscreteDistribution(np.random.default_rng(3).dirichlet(np.ones(256)))


def _registry(name):
    return lambda: make(name, 2048, 4, 0.3, rng=np.random.default_rng(1))


#: name -> (instance factory, k, eps, seed).
IDENTITY_CASES = {
    "staircase": (_staircase, 4, 0.3, 7),
    "dirichlet": (_dirichlet, 3, 0.25, 11),
    "zipf": (_registry("zipf"), 4, 0.3, 11),
    "sawtooth": (_registry("sawtooth-uniform"), 4, 0.3, 11),
}

#: (case, backend) -> (decision digest, trace digest), recorded on the
#: commit before the second kernel family and the `kernel` knob were deleted.
IDENTITY_GOLDEN = {
    ("staircase", "pods16"): (
        "ec9026cf7c0529c8ed83587692b09e756109248c0e01b9413c7e07c37328cf35",
        "857fc9347486e9e671471d6cc7ecb9f16356c13d15b1cee687f7d3fef649a6f3",
    ),
    ("staircase", "cdkl22"): (
        "dd0ac92d7f501e906dc1e8a0e712fc948d2111bbdfdf70ccbd08c62a205e76b8",
        "2bbd60b5f8bbe2dfcb396a098d01581d3a8c9ea5f15fe75bc2c339a5b6f9fc7a",
    ),
    ("dirichlet", "pods16"): (
        "d84ed8402af651acf6054a8b7759de208d0604991e594c75d8e3d0386f57c7d2",
        "b80fe16ba58fe555b7ca7a69c7c91794fcc88160bc56a0fc34d4d44ea4e9fb61",
    ),
    ("dirichlet", "cdkl22"): (
        "d84ed8402af651acf6054a8b7759de208d0604991e594c75d8e3d0386f57c7d2",
        "8f48c3ac0f4e913313457dce6fdba422253518ee91a328c2f773e72f96285613",
    ),
    ("zipf", "pods16"): (
        "5b18de5ee80b798532d03be6a67202864256ccfd4b2cc95e7219f116294529af",
        "8afbd6644fd4f67fd388a116cbc582cd2a4bc9a8af426a7fafa36a40d5e48a2f",
    ),
    ("zipf", "cdkl22"): (
        "38189787da101188881ed48a10cac61f4cf283b513f81fcb17f0b5135e023aff",
        "acdaaa92c15312e84465241412eb4c0415178a200557ebf2179542d8fa0fbbeb",
    ),
    ("sawtooth", "pods16"): (
        "181a932b84c023f9575370e5ee3f8a5ba88f93c2d3c94fedb4ac505143affeb5",
        "7b4ee41799ac1567bfab6c0bc4cb148120414b9bad7b0697b50e7b84db9fd56b",
    ),
    ("sawtooth", "cdkl22"): (
        "260bcf12f596cd5ed0743c8218aeac2c7d3e42c332faa84860c3fca66b97612f",
        "9ca600cb7742824f1584e7461f53259d6ebc5ece9ceb44f198d18f6a0413d147",
    ),
}

#: (pair name, n, k, eps, seed) -> (decision digest, trace digest).
CLOSENESS_GOLDEN = {
    ("identical-staircase", 2000, 4, 0.4, 0): (
        "84c253f37648f4f674a10a53bf01665a5c29b4b049803fbe4921851f9f1875ab",
        "119f9a000c5c5323ad980a32c24fef483ed6d66280a24fdb52d022bf903c7b5d",
    ),
    ("identical-staircase", 2000, 4, 0.4, 1): (
        "acde40c13bc7da1e647be6c8d46e35a259a3adafd7c06e325c54599a472263ce",
        "5edc4c5cf6f613e69f33ab083f969f4e872941c5c0c0fbab0bfd75d1f3f7dcf6",
    ),
    ("identical-staircase", 2000, 4, 0.4, 5): (
        "1dc71317f1dc1f53a7f6f02229335ed4bf5e3458cb25946d43fd071d542af12b",
        "bfc1ea58c5fc273c2d176e2c337d5d060e1a7e0d448a5b1d9a3811c5c5f53531",
    ),
    ("shifted-staircase", 2000, 4, 0.4, 0): (
        "969ddf34b4fa946e7aaeebcbade5b397bb5cf5fddcc2e85788819ce55b3bd247",
        "a96a136688244cd6084fe5d67c6c805d0b77d758577216e7e6a2f66d9cb35e5d",
    ),
    ("flattening-blind", 400, 4, 0.3, 0): (
        "16a80b303635f1a9439904c742716e5dadf35ab579d4aeb23d15d6f443612cc0",
        "6cfaa9f4501fad9d8bbe727790319bd2e73c94a28114b24ccc085ea41902dcf0",
    ),
}

#: ChaosConfig backend -> canonical report digest (8 and 12 sessions).
CHAOS_GOLDEN = {
    "pods16": (8, "d048357fa8c70e0c0976c9ca00ca706ebf941980376da5d2e9d68b15e79b3bc5"),
    "mixed": (12, "f5bab0bc44039abff6d8ef8473574f0b6a030816a6c3a8ce47c94e5646da0ae0"),
}

SPEC = SweepSpec(
    axis="n", values=(400, 800, 1200), n=400, k=3, eps=0.35, trials=3,
    bisection_steps=2, seed=3, backend="cdkl22",
)
SPEC_FINGERPRINT_GOLDEN = "f6be015dd27b031b6f4633f4e32ceb103ea797881f70a4e49f975628226a8364"
SHARD_IDS_GOLDEN = (
    "72cee6910cac4cf729ee172acab5c882",
    "f26a3791d4564fd38d310e42aab48640",
    "dd2a056eaf1983fe885b6929809ab661",
)


@pytest.mark.parametrize("case,backend", sorted(IDENTITY_GOLDEN))
def test_identity_digests(case, backend):
    factory, k, eps, seed = IDENTITY_CASES[case]
    assert identity_digests(factory(), k, eps, seed, backend) == IDENTITY_GOLDEN[case, backend]


@pytest.mark.parametrize(
    "case", sorted(CLOSENESS_GOLDEN), ids=lambda case: f"{case[0]}-seed{case[4]}"
)
def test_closeness_digests(case):
    assert closeness_digests(*case) == CLOSENESS_GOLDEN[case]


@pytest.mark.parametrize("backend", sorted(CHAOS_GOLDEN))
def test_chaos_replay_digest(backend):
    sessions, golden = CHAOS_GOLDEN[backend]
    service = TesterService()
    for request in build_requests(
        ChaosConfig(sessions=sessions, fault_rate=0.25, seed=5, backend=backend)
    ):
        service.submit(request)
    assert _sha(service.run().canonical_json()) == golden


def test_sweep_spec_digests():
    assert _sha(json.dumps(SPEC.fingerprint(), sort_keys=True)) == SPEC_FINGERPRINT_GOLDEN
    assert tuple(shard.shard_id for shard in SPEC.shards()) == SHARD_IDS_GOLDEN
