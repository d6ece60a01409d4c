"""Golden digests: the committed bytes every refactor must reproduce.

``test_determinism.py`` only checks that two runs in one process agree.
These digests pin the bytes themselves, so a refactor that changes any
experiment's output, span stream or metrics fails here even when it is
self-consistent.

- ``RESULT_DIGESTS``: sha256 of the sorted-key ``result.to_dict()`` JSON
  of every registered experiment at ``smoke``, seeds 0 and 1.
- ``TRACE_DIGESTS``: for ``fig9`` (synchronous insert and lookup trees)
  and ``svc-outage`` (timed lookup trees) at ``smoke``, seed 1, the
  sha256 of the exported JSONL span stream and of the final metrics
  snapshot.

A digest change is a behaviour change.  Never re-record a digest to make
a refactor pass; regenerate one only for a deliberate change of output,
and give the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro import api
from repro.experiments import all_experiment_ids, run_experiment
from repro.telemetry.sinks import write_jsonl

SEEDS = (0, 1)

#: experiment id -> (seed 0 digest, seed 1 digest) at ``smoke``
RESULT_DIGESTS = {
    "ablation-ds": (
        "751dac4697e6cdcff10a8080191c8897b0324fc552cecc8a4e7ab62dad577aeb",
        "33d9e9c9308bbe9a21c06e68ed0341711e1f710002b6ca77f6da43d7a57541f6",
    ),
    "ablation-flows": (
        "a38992035332dd59d41ceb5cef5d5c7931ee143a137cd6185a1cbe41e8ec48a1",
        "981663028ed9d9b2f9e33bad8ad1bd00779c937b79fbcd736ef4d6e75e336783",
    ),
    "ablation-metric": (
        "ecdba4bea6c91e0ca6ced1aee65737c9d42c80d7218bec4fa6e38e701aa0515d",
        "56df7e01f7e331cac59925f46a02f6bc5c2ebf8e100949e43b16c093c4755fa3",
    ),
    "ablation-tiebreak": (
        "4bebf6bcacd6b799baebd93a0e984e2aed930909d842bc4544cfa989b6755dba",
        "4f906b2fb0cd1518e924db5bfbfe16953568952a0ca28fb8e991baa23cfd61bf",
    ),
    "baseline-comparison": (
        "05d7a943d8dd723600be3a8b1c96633f5262a05159386019cae2b113c27fea43",
        "f38c0c194f7943284edd4df07d7756937982356d648d1e1ff7d5e232f25e995d",
    ),
    "ext-adversarial": (
        "4890e49510fbba646d0a7fb6cca92e99d67b39ef207e08147857be26f4d5a971",
        "6f26ee067c1b4c89d1d2bc47a2933961ba0afd29f46da94cb5b6f9a41aae48ca",
    ),
    "ext-churn": (
        "1c5fc5d7b0ea9262b21a3defbaf2aa013bff722b38029674c49c56664921991c",
        "82841290bf8e3648f1965034c1d09cc9cf463ff46f42fd4d2af86e60d14d913e",
    ),
    "ext-joinstorm": (
        "94b060f5abefb60520fac4e86191091de844b0fc2af9f22a74213b9a61a53d82",
        "ad2ad9aee6de00981f97c1175f68bf71f51494a9434c1a369adb7112f5072f7e",
    ),
    "ext-outage": (
        "640b4dbc99b5982ca7c4d44010f9b5815c49cab04ebfe7335f7f8d4b5f8d44b7",
        "1aa4fcb08577ef47518a025e8ef75c7f3808ce5121136bfc41433086ef0dad7b",
    ),
    "ext-wave": (
        "dcb7d5c3f781405684ac2ddb5324f36413d2aad516acd72af826d48daede5336",
        "92a9f1000afd8e53ce736264dfb9f2b15aa60d20d8c97a8361104cdefd2b0edb",
    ),
    "fig1": (
        "4dfbfd21c8ffe5e1c9da45d509d5a3f200d358eefb3883bf3335fba6d0bde78f",
        "433e6329e9d691186399d70c1117dc0701ee9c3a0694a1105d5a6b9b2001b794",
    ),
    "fig10": (
        "1ae85ea878584355e8df2d7ecb4463754b12fb0b52193e581fd267011690e37b",
        "db15e56c2b40cfb4717e2e0ce2eccd1703c9ae2612bdd0024b73f9f4ec632b3b",
    ),
    "fig11": (
        "847b021f97a23aad6dcfaf56e07228a539a06ceb078ad7e09cfc9ce7837e32e8",
        "62d5c06b25d0af4f162cd168d11e626a3833eb9f2c13beafd7bc27cc37796e3a",
    ),
    "fig12": (
        "97f0d513338efd753383848f083fe83bde2d0f71db5359a3d690964c4c179e85",
        "0947bb16e4855066b4c9d27b1bfeebef5b49da6040a4a911d94b27b2c5d2716e",
    ),
    "fig7": (
        "482d9ce98f34aceae3a4820f3f2ce9f2ed6f37138bb24f87909100a88f6951fe",
        "482d9ce98f34aceae3a4820f3f2ce9f2ed6f37138bb24f87909100a88f6951fe",
    ),
    "fig8": (
        "bb87af1961e910739a6d0f8d1624e21a6f4bb5279939ca4f1e2cf1a5ab047be6",
        "bb87af1961e910739a6d0f8d1624e21a6f4bb5279939ca4f1e2cf1a5ab047be6",
    ),
    "fig9": (
        "088af8fa356073549f83b54651bd87a668c88efc417b699e874a916ec30d06e1",
        "0ad675900a067833921cc326849f6dffaf8a0a4a3cfd33865bdf8d122d2e17dc",
    ),
    "svc-outage": (
        "784ea24d84142689d686d6fa9d310f5fc031cd3ff102b8ad2ce182b83fe74a72",
        "bd7c7a5ca73adcf954e9cc7e026e0fa7f67cfa03eb689540fc068372d74ba639",
    ),
    "svc-steady": (
        "4c86a4ef1402d3a042bf81bc2ce099ba5c38e49faaf135207927b3874ac2b17b",
        "fdbde65f63c2dd14bf3269e50bb8411da8c209674d66947119e4eb79a1ba4373",
    ),
    "tab1": (
        "8c676199cff8d50bf74a3aaf4bda96c3b6ed6e89a28763b9d8e03d8c2fb1ee03",
        "735e16763015dbcd802b38e2749b49d782b418159274fcd20fe0431802f3d354",
    ),
    "tab2": (
        "4416e561760e5d4669dfc5ae7f229203f8226aa08fa2be38b077123f46cdc6ae",
        "4e1f77679afc23fcf05f7c684717a43db8204b6da209cae8b9589a61cb13c2b1",
    ),
    "tab3": (
        "f15f86408b3dd197a3b10f327d6ab6d4084115944c521e1569c8b863d243b6cc",
        "0d0040d96460cc9da79ff568fe3c6299677c005a1ddddb67b25477b64ca1ef9c",
    ),
}

#: experiment id -> (span count, JSONL span digest, metrics digest) at
#: ``smoke``, seed 1, with an unbounded span recorder
TRACE_DIGESTS = {
    "fig9": (
        1196,
        "c81e2349761d17d4889568f498544eeeb2cfcf224a0b6b93261bf58e61ccc0f1",
        "b88b0f6310ab36827576d09e02d0e6c297c91321bfe140d9733df59351b74cb7",
    ),
    "svc-outage": (
        9801,
        "c840558cbe584a1a521e684fb1dcdfd7a117d873f4da6a40be6c3873d831a0c5",
        "61f6f26f7bb825579706c743e2d35a4bafa0effd5feed2061fdf83eef1d01557",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_experiment_is_pinned():
    assert sorted(RESULT_DIGESTS) == sorted(all_experiment_ids())


@pytest.mark.parametrize("experiment_id", sorted(RESULT_DIGESTS))
def test_result_digests(experiment_id):
    digests = tuple(
        _sha256(
            json.dumps(
                run_experiment(experiment_id, scale="smoke", seed=seed).to_dict(),
                sort_keys=True,
            )
        )
        for seed in SEEDS
    )
    assert digests == RESULT_DIGESTS[experiment_id]


@pytest.mark.parametrize("experiment_id", sorted(TRACE_DIGESTS))
def test_span_stream_and_metrics_digests(experiment_id):
    traced = api.telemetry(experiment_id, scale="smoke", seed=1, max_spans=None)
    buffer = io.StringIO()
    count = write_jsonl(traced.spans, buffer)
    assert traced.spans.dropped == 0
    observed = (
        count,
        _sha256(buffer.getvalue()),
        _sha256(json.dumps(traced.metrics, sort_keys=True)),
    )
    assert observed == TRACE_DIGESTS[experiment_id]
