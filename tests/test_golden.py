"""Byte identity of the artifacts across changes.

The digests pin the exact bytes of every artifact of one ``jspkdm analyze``
run on the fixture webapp, rendered servlet sources included, and of each
benchmark workload at seeds 1 and 7. A change that means to alter an output
format updates them and says why; so does a benchmark change that alters a
generator in ``bench/workloads.py``.

The workloads run in process, each in its own work directory with the
arguments ``bench/run.py`` gives its child: the three CLI workloads through
``jspkdm.cli.main`` and hostile-pages through ``bench/hostile.py``'s
``main``. Both bench modules are loaded read-only from their files, as
``tests/test_traced_run.py`` loads the tracer. hostile-pages'
``report.json`` is left out: it holds a ``RecursionError``'s text, which
differs between Python versions.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from jspkdm.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"

GOLDEN_SHA256 = {
    "out/deps.dot": "ef04a28d593ac524e2a688772552df173059568f8be5f19c5c73e40c5acf1080",
    "out/model.json": "dbd8cfdd6fb2347e1534f215e890416fc1ffd36a23dd542a1fd84eecdb07f1e7",
    "out/model.xmi": "0484af8d387ef02f38101fa6823f4b06908993e2e04d59e5e0bbbb9fee25a7d8",
    "out/report.json": "6aa34c9cc0a56b6439e9b7753f7d2e8e03702d9ecfeafddb19283001f00353b3",
    "servlets/jsp_detail_002ejsp.java":
        "b3aff38ac06f7966d1bd42d95be6c021030e8f2c4751e8ba2a5d505636766f8d",
    "servlets/jsp_error_002ejsp.java":
        "997e924023a2b2a3f49877f71e3ee56c24cb33b5a52548462a0262da035f36d1",
    "servlets/jsp_header_002ejsp.java":
        "ebb8a51d61841685ab25fd62c65f1c2fffa7fd2fbf43daa5e6a911a56e7b5489",
    "servlets/jsp_index_002ejsp.java":
        "d5067bcbc2f5618ca7670046c03020a417325820060f76f2f6324ffd3fee69c3",
    "servlets/jsp_powers_002ejsp.java":
        "1dfb14e7a992696f8c78c76f2ff26b20616d4d08a51bd1a6e7584f8527448fbc",
}

# Each workload at seed 1: its run's exit code, and the digest of each file
# it writes, or, for a directory (a trailing "/"), of its file list with
# each file's digest.
WORKLOAD_SHA256 = {
    "descriptor-heavy": {
        "exit": 1,
        "out/deps.dot": "6293b765f921f975961ec1e0331ded799507b27217d08d17c3b772fd74263d57",
        "out/model.json": "4544600a9b29b14f64acbc28d9bc327af885407c60756224ef3d99ec61f8d608",
        "out/model.xmi": "faf1c4b791e1691f9cb36d6df5a33c3c7516fb87e5e062fad3329d873f64913e",
        "out/report.json": "82e54ba1fe3104f1e4a4b5f4401ad1314bc873c62ede5ddc27fb011e85c74c11",
    },
    "hostile-pages": {
        "exit": 0,
        "out/model.json": "315151a7d9e42d598dd99bfa28da201d757cc1511c27b643b3c9e8861a461997",
        "out/model.xmi": "880009479227b4b9faf90fbd7e88566baeea36f928518ff92d9b34086bcb597a",
    },
    "linked-site": {
        "exit": 1,
        "out/deps.dot": "7b3f689f04b61079857273b794b6f785fb69554b75fe3cb0a1f6554b3d4c242c",
        "out/model.json": "bf3da53597010e19d88fdae95137de41a497d135e12864b3f445404ef1f54a98",
        "out/model.xmi": "51c357498ae9bb2b98101ee059468c7fa39840136b53f211f39ea61259ea657e",
        "out/report.json": "5bf662e4eef15508e3c2eb44a1ac4bd91a1c10e34a49e6ca0404b4613f3ed3ee",
    },
    "script-heavy": {
        "exit": 0,
        "out/deps.dot": "2d3b70405b749393fef8b9e92ced25a325d5625defc36045d04c3a330ecf9785",
        "out/model.json": "43ca735186a0d97ba3de1607ad511820e3e1a2835768c0e6d6214e45e7a848ca",
        "out/model.xmi": "bf3aeaad5e90bb4351550ec731a73c814b449be669b17b075e0dc33dad2dfc9f",
        "out/report.json": "4bac8f2a0e5b4642405d3b5eb70aff1605b9f90e11cff025c5e26fdd5a8ea1fd",
        "servlets/": "d62068c191e3282ad8d1b7056ec2bfe7d12c7318a79e3b76a4abf725cdda3617",
    },
}

# The same at seed 7.
WORKLOAD_SHA256_SEED_7 = {
    "descriptor-heavy": {
        "exit": 1,
        "out/deps.dot": "d38cb8ffdcdec117c1c5c5695854a9d80381088fba943de36ba7ce633a3d6168",
        "out/model.json": "e41e30c4d0a9f2dd696c11a86ed9a400f928e7cbdde58656a470ff3f3e31c04a",
        "out/model.xmi": "f41336c8515ca0b28f5d4ca20fef052b33372270594e7c69f727e4d3600eec01",
        "out/report.json": "6b0f83cc1df3575d19a9e27fdd2adb71f194774d1d6ee493c6d7fa899e413225",
    },
    "hostile-pages": {
        "exit": 0,
        "out/model.json": "463907a598c90edcb2d71f8b2265a208ff430c15db87bf91a1b7213966878bd0",
        "out/model.xmi": "1a1e93aca63d77563af4caf47cbda02b055ca365690d41e85135e8e23502993d",
    },
    "linked-site": {
        "exit": 1,
        "out/deps.dot": "0aa1220f6fff0591cada26197ba9890bc7137942d9ac16cb1952aec07c38a175",
        "out/model.json": "1c3aa45d54815c5eb9b073de83bbed1d64b95c916a2ecc17bde32ec5b348acc9",
        "out/model.xmi": "79bf3b4a15a267b4e3764189610440f73759229ca51cd5743b2a345735c8471d",
        "out/report.json": "39cba7e2edde2759e840b3a91d15e3e2569a160b5597bb7fe30369dc37b3a596",
    },
    "script-heavy": {
        "exit": 0,
        "out/deps.dot": "427e7e25e01f3049eb8a78cc5d8260eba267123f5f862cfed1d48d23caf4d8b5",
        "out/model.json": "9937cb7a206437c06541c964c25fccee16c3f8b01e4cf2190ff5284bdbc262fe",
        "out/model.xmi": "c0395ebfdbda04b5bc3d52d859aee940bbf9c092a973179ee0aa742ca1a6bbcc",
        "out/report.json": "4bac8f2a0e5b4642405d3b5eb70aff1605b9f90e11cff025c5e26fdd5a8ea1fd",
        "servlets/": "0a7cdfc3dde4616697ba0f4234b9c6a3585847b067bb7fbecbc257afb3d90a04",
    },
}


def test_fixture_artifacts_match_golden_digests(fixture_webapp, tmp_path):
    assert main(["analyze", str(fixture_webapp), "--out", str(tmp_path / "out"),
                 "--servlet-src-out", str(tmp_path / "servlets")]) == 0
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for sub in ("out", "servlets") for path in (tmp_path / sub).iterdir()}
    assert digests == GOLDEN_SHA256


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks a class's module up in sys.modules while it builds it.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_sha256(root: Path) -> str:
    listing = "".join(f"{path.relative_to(root).as_posix()} {_sha256(path)}\n"
                      for path in sorted(root.rglob("*")) if path.is_file())
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()


def run_workload(name: str, seed: int, work: Path) -> dict[str, object]:
    """Generate workload ``name`` at ``seed`` under ``work``, which must be
    the current directory, run it, and return its exit code and digests."""
    app = _load_bench("workloads").GENERATORS[name](seed)
    app.write(work)
    if app.per_page:
        code = _load_bench("hostile").main([app.root, "out"])
        (work / "out" / "report.json").unlink()
    else:
        code = main(["analyze", app.root, "--out", "out", *app.args])
    digests: dict[str, object] = {"exit": code}
    for path in sorted((work / "out").iterdir()):
        digests[f"out/{path.name}"] = _sha256(path)
    if (work / "servlets").is_dir():
        digests["servlets/"] = _tree_sha256(work / "servlets")
    return digests


@pytest.mark.parametrize("name", sorted(WORKLOAD_SHA256))
def test_workload_artifacts_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_workload(name, 1, tmp_path) == WORKLOAD_SHA256[name]


@pytest.mark.parametrize("name", sorted(WORKLOAD_SHA256_SEED_7))
def test_workload_artifacts_at_seed_7_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_workload(name, 7, tmp_path) == WORKLOAD_SHA256_SEED_7[name]
