"""Quick tests of the benchmark itself (not part of the package's suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import run  # noqa: E402
import workloads  # noqa: E402


def tiny(name):
    """A few of the cheapest items of seed 0's corpus for each workload."""
    corpus = workloads.WORKLOADS[name].corpus(0)
    if name == "modp-dim":
        pick = [c for c in corpus if c[1] == 3 and max(map(sum, c[2])) == 8]
    elif name == "modpm-cli":
        pick = ([c for c in corpus if c[0] == "modpm" and c[2] == 1][:3]
                + [c for c in corpus if c[0] == "modp" and c[1] == 16][:1])
    elif name == "univariate":
        pick = [c for c in corpus if c[0] in (2, 4, 9) and len(c[1]) <= 7]
    else:
        pick = [c for c in corpus if c[1] in (3, 5)]
    return pick[:4]


@pytest.fixture(scope="module")
def ff():
    return run.fresh_import(SRC)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_corpus_runs_and_checks(name, trace):
    corpus = tiny(name)
    assert corpus
    result, errors = run.run(workloads.WORKLOADS[name], corpus, 0.0, trace,
                             SRC)
    assert errors == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(corpus)
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec()[kind]}
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())


def test_layer_counts_repeat_exactly():
    corpus = tiny("univariate")
    counts = []
    for _ in range(2):
        result, _ = run.run(workloads.UNIVARIATE, corpus, 0.0, 1, SRC)
        m = result["metrics"]
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")
                       and k not in ("oracle.points_per_s",
                                     "linalg.charpoly_slope")})
    assert counts[0] == counts[1]
    assert counts[0]["zerodim.op_matrix_calls"] > 0


def answers(ff, name, corpus):
    w = workloads.WORKLOADS[name]
    w.setup(ff, corpus)
    return [w.normalize(op()) for op in w.prepare(ff, corpus)]


def rejects(ff, name, corpus, good, bad):
    check = workloads.WORKLOADS[name].check
    assert check(ff, corpus, good) == []
    assert check(ff, corpus, bad) != []


def test_modp_dim_rejects_changed_coefficient(ff):
    corpus = tiny("modp-dim")
    good = answers(ff, "modp-dim", corpus)
    p = corpus[0][0]
    series = list(good[0])
    series[2] = (series[2] + 1) % p
    rejects(ff, "modp-dim", corpus, good, [tuple(series)] + good[1:])


def test_modpm_cli_rejects_changed_coefficient(ff):
    corpus = tiny("modpm-cli")
    good = answers(ff, "modpm-cli", corpus)
    bad = json.loads(json.dumps(good))
    res = bad[0]
    res["series"][1] = (res["series"][1] + 1) % res["modulus"]
    rejects(ff, "modpm-cli", corpus, good, bad)


def test_modpm_cli_rejects_dropped_det_factor(ff):
    corpus = tiny("modpm-cli")
    good = answers(ff, "modpm-cli", corpus)
    bad = json.loads(json.dumps(good))
    bad[0]["det_factors"] = bad[0]["det_factors"][1:]
    rejects(ff, "modpm-cli", corpus, good, bad)


def test_univariate_rejects_dropped_factor(ff):
    corpus = tiny("univariate")
    good = answers(ff, "univariate", corpus)
    zeta, charpolys, facs = good[0]
    unit, factors = facs[1]
    bad_facs = facs[:1] + ((unit, factors[1:]),) + facs[2:]
    bad = [(zeta, charpolys, bad_facs)] + good[1:]
    rejects(ff, "univariate", corpus, good, bad)


def test_oracle_count_rejects_count_off_by_one(ff):
    corpus = tiny("oracle-count")
    good = answers(ff, "oracle-count", corpus)
    for i, (counts, exact) in enumerate(good):
        bad = list(good)
        bad[i] = ((counts[0] + 1,) + counts[1:], exact)
        rejects(ff, "oracle-count", corpus, good, bad)


def test_plain_reference_arithmetic():
    import plain
    # x*y = 1 over F_{2^k} has 2^k - 1 points
    for k in (1, 2, 3):
        assert plain.count_plain(2, k, {(1, 1): 1, (0, 0): 1}, 2) == 2 ** k - 1
    # the 1-torus over F_3 has 3^k - 1 points: Z = (1 - T) / (1 - 3T)
    assert plain.torus_series(1, 3, 3, 10 ** 6) == [1, 2, 6, 18]
    assert plain.necklace_defects([2, 4, 8]) == []
    assert plain.necklace_defects([2, 5]) == [2]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modp-dim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
