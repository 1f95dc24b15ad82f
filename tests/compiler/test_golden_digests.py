"""Golden OAT digests: the compiler's output bytes may not drift.

The six paper apps at scale 0.25 are built in every configuration row
that matters for size — baseline, CTO+LTBO+PlOpti (K=8) and the same
plus global merging — with both mining engines, and each OAT file's
sha256 must equal the value recorded below.  Any change to dex2oat,
the outliner, the merger or the linker that moves one output byte
fails here, which is what lets a speed-only change prove it is one.

The builds run in a subprocess with ``PYTHONHASHSEED=0``: the app
generator seeds its per-idiom streams from ``hash()`` of a string
tuple, so the apps themselves depend on the hash seed.

Run directly to print the current digests as JSON::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/compiler/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SCALE = 0.25
ENGINES = ("suffixtree", "suffixarray")

GOLDEN: dict[str, str] = {
    "Fanqie/CTO+LTBO+PlOpti+Merge/suffixarray": (
        "82203f2ef4c88d0fa83400cd7285455ffb778e24bb2b32317ea5c215332bee81"
    ),
    "Fanqie/CTO+LTBO+PlOpti+Merge/suffixtree": (
        "82203f2ef4c88d0fa83400cd7285455ffb778e24bb2b32317ea5c215332bee81"
    ),
    "Fanqie/CTO+LTBO+PlOpti/suffixarray": (
        "5ecde81135e69f946da732757bccb8c6bb62ff2dfe664e02b39fed00036be37a"
    ),
    "Fanqie/CTO+LTBO+PlOpti/suffixtree": (
        "5ecde81135e69f946da732757bccb8c6bb62ff2dfe664e02b39fed00036be37a"
    ),
    "Fanqie/baseline": (
        "f4beae5e29630d04c9880e59a1d3ae16ad24bc019a9e88c911baa5a2f6c81195"
    ),
    "Kuaishou/CTO+LTBO+PlOpti+Merge/suffixarray": (
        "74e8f6bbcfa1be136346dd9bea66a32e100dcfebc0446e0b25afafd070d84061"
    ),
    "Kuaishou/CTO+LTBO+PlOpti+Merge/suffixtree": (
        "74e8f6bbcfa1be136346dd9bea66a32e100dcfebc0446e0b25afafd070d84061"
    ),
    "Kuaishou/CTO+LTBO+PlOpti/suffixarray": (
        "5b9d92bc0fe1d135a061eba268aaf139ad1656ea7a23742c8180216ef5b75ea3"
    ),
    "Kuaishou/CTO+LTBO+PlOpti/suffixtree": (
        "5b9d92bc0fe1d135a061eba268aaf139ad1656ea7a23742c8180216ef5b75ea3"
    ),
    "Kuaishou/baseline": (
        "5c70221bb8e8fe44fc76a4ff9c821fa96fda9d7da7b6cb2ae220d901ca9adb6f"
    ),
    "Meituan/CTO+LTBO+PlOpti+Merge/suffixarray": (
        "3804a77157732fab65e6911180a5954bbf7aac475adde3371936452a7c5d72f7"
    ),
    "Meituan/CTO+LTBO+PlOpti+Merge/suffixtree": (
        "3804a77157732fab65e6911180a5954bbf7aac475adde3371936452a7c5d72f7"
    ),
    "Meituan/CTO+LTBO+PlOpti/suffixarray": (
        "af5fa35119115c28bea440722d62f86dc1d732099c64b7e6f5689804c8bc9d88"
    ),
    "Meituan/CTO+LTBO+PlOpti/suffixtree": (
        "af5fa35119115c28bea440722d62f86dc1d732099c64b7e6f5689804c8bc9d88"
    ),
    "Meituan/baseline": (
        "d55548eed0ac9b754e0312cfe7d67e9dd1af46f023fb9e7548e0813216358932"
    ),
    "Taobao/CTO+LTBO+PlOpti+Merge/suffixarray": (
        "d325fb210bf8c75458c9a6bf3d13e3f27e1aa032df46f64052643bb8728092ad"
    ),
    "Taobao/CTO+LTBO+PlOpti+Merge/suffixtree": (
        "d325fb210bf8c75458c9a6bf3d13e3f27e1aa032df46f64052643bb8728092ad"
    ),
    "Taobao/CTO+LTBO+PlOpti/suffixarray": (
        "8c5018d93534d007f1ad451f11aec00f271a22df978d398631d3a926b2aab0cc"
    ),
    "Taobao/CTO+LTBO+PlOpti/suffixtree": (
        "8c5018d93534d007f1ad451f11aec00f271a22df978d398631d3a926b2aab0cc"
    ),
    "Taobao/baseline": (
        "f275c3ab2f191aaeae46d105c3b8e81f9ba8db610d13f94211636590d032fafb"
    ),
    "Toutiao/CTO+LTBO+PlOpti+Merge/suffixarray": (
        "e5f9ca5b93ff4e5f058167579af8dfa59c3d14fd35312194fe137116f3da2f92"
    ),
    "Toutiao/CTO+LTBO+PlOpti+Merge/suffixtree": (
        "e5f9ca5b93ff4e5f058167579af8dfa59c3d14fd35312194fe137116f3da2f92"
    ),
    "Toutiao/CTO+LTBO+PlOpti/suffixarray": (
        "f531b7fc7b039fd66c3b6c8f7ef2a401e89d02f1d665909024f54e4786cc9e5a"
    ),
    "Toutiao/CTO+LTBO+PlOpti/suffixtree": (
        "f531b7fc7b039fd66c3b6c8f7ef2a401e89d02f1d665909024f54e4786cc9e5a"
    ),
    "Toutiao/baseline": (
        "d73b918256f429c0497fbd8f950116c337f193439e6515391e8d51e230e6ba31"
    ),
    "Wechat/CTO+LTBO+PlOpti+Merge/suffixarray": (
        "dc4f7b12aaa70d77e88ff55e820c340850af0f96740548d4559ad132d2bf2d54"
    ),
    "Wechat/CTO+LTBO+PlOpti+Merge/suffixtree": (
        "dc4f7b12aaa70d77e88ff55e820c340850af0f96740548d4559ad132d2bf2d54"
    ),
    "Wechat/CTO+LTBO+PlOpti/suffixarray": (
        "833d37ccc2882d2b9ce907af9621c8ea099179ef73da668bf4e19de685343e46"
    ),
    "Wechat/CTO+LTBO+PlOpti/suffixtree": (
        "833d37ccc2882d2b9ce907af9621c8ea099179ef73da668bf4e19de685343e46"
    ),
    "Wechat/baseline": (
        "3021df77518e10b24173089a669561c785bff5da1e110c5d65abc88cc6259749"
    ),
}


def compute_digests() -> dict[str, str]:
    """``"<app>/<config>[/<engine>]" -> sha256`` over the golden matrix."""
    import dataclasses

    from repro.core import CalibroConfig, build_app
    from repro.workloads import APP_NAMES, app_spec, generate_app

    plopti = CalibroConfig.cto_ltbo_plopti(groups=8, jobs=1)
    digests: dict[str, str] = {}
    for name in APP_NAMES:
        dexfile = generate_app(app_spec(name, SCALE)).dexfile
        oat = build_app(dexfile, CalibroConfig.baseline()).oat
        digests[f"{name}/baseline"] = hashlib.sha256(oat.to_bytes()).hexdigest()
        for engine in ENGINES:
            for config in (plopti, plopti.with_merging()):
                config = dataclasses.replace(config, engine=engine)
                oat = build_app(dexfile, config).oat
                digests[f"{name}/{config.name}/{engine}"] = hashlib.sha256(
                    oat.to_bytes()
                ).hexdigest()
    return digests


def test_oat_bytes_match_golden_digests():
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(REPO / "src"))
    env.pop("CALIBRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(digests) == len(GOLDEN) == 6 * (1 + 2 * len(ENGINES))
    drifted = sorted(key for key in GOLDEN if digests.get(key) != GOLDEN[key])
    assert not drifted, f"OAT bytes changed for: {drifted}"


if __name__ == "__main__":
    print(json.dumps(compute_digests(), sort_keys=True))
