"""Meta-consistency of the repository's reproduction index.

DESIGN.md section 3 maps every experiment id to a benchmark file; these
tests keep docs and code from drifting apart.
"""

import os
import re

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def read(path):
    with open(os.path.join(REPO_ROOT, path)) as handle:
        return handle.read()


def collector():
    """The ``benchmarks/collect_results.py`` module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "collect_results",
        os.path.join(REPO_ROOT, "benchmarks", "collect_results.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDesignIndex:
    def test_every_indexed_bench_file_exists(self):
        design = read("DESIGN.md")
        files = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert files, "DESIGN.md lists no bench targets?"
        for fname in files:
            assert os.path.exists(
                os.path.join(REPO_ROOT, "benchmarks", fname)
            ), fname

    def test_every_bench_file_is_indexed_or_helper(self):
        design = read("DESIGN.md")
        indexed = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        present = {
            f
            for f in os.listdir(os.path.join(REPO_ROOT, "benchmarks"))
            if f.startswith("bench_") and f.endswith(".py") and f != "bench_util.py"
        }
        missing = present - indexed
        assert not missing, "bench files absent from DESIGN.md: %s" % missing

    def test_collector_order_covers_all_report_ids(self):
        module = collector()
        # Every exp id passed to report(...) in a bench file must be ordered.
        ids = set()
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        for fname in os.listdir(bench_dir):
            if fname.startswith("bench_") and fname != "bench_util.py":
                text = read(os.path.join("benchmarks", fname))
                ids.update(re.findall(r'report\(\s*\n?\s*"([^"]+)"', text))
        missing = ids - set(module.ORDER)
        assert not missing, "experiment ids missing from collect_results.ORDER: %s" % missing

    def test_committed_report_is_what_the_collector_makes(self):
        # The committed report is the collector's output over the committed
        # tables, plus at most the gate verdict that --check-regressions
        # appends.
        report, _, _ = read("benchmarks/results/REPORT.md").partition(
            "\n## Bench regression gate\n"
        )
        assert report == collector().collect()


class TestDocsConsistency:
    def test_experiments_mentions_every_known_deviation_module(self):
        experiments = read("EXPERIMENTS.md")
        for module in ("repro/core/ag3.py", "repro/selfstab/exact.py"):
            assert module in experiments

    def test_readme_points_to_docs(self):
        readme = read("README.md")
        for doc in ("docs/models.md", "docs/algorithms.md", "docs/api.md"):
            assert doc in readme
            assert os.path.exists(os.path.join(REPO_ROOT, doc))

    def test_design_has_paper_identity_check(self):
        design = read("DESIGN.md")
        assert "Paper identity check" in design


class TestPaperMap:
    def test_every_mapped_module_exists(self):
        paper_map = read("docs/paper-map.md")
        for match in re.findall(r"`((?:core|selfstab|linial|defective|edge|bitround|lowmem|arboricity|baselines|runtime|mathutil|analysis|apps)/[\w/]+\.py)`", paper_map):
            assert os.path.exists(
                os.path.join(REPO_ROOT, "src", "repro", match)
            ), match

    def test_every_mapped_test_file_exists(self):
        paper_map = read("docs/paper-map.md")
        for match in set(re.findall(r"`(test_\w+\.py)", paper_map)):
            assert os.path.exists(
                os.path.join(REPO_ROOT, "tests", match)
            ), match

    def test_every_mapped_experiment_id_has_results_entry(self):
        paper_map = read("docs/paper-map.md")
        module = collector()
        ids = set(re.findall(r"`(E-[\w-]+|T1)`", paper_map))
        known = set(module.ORDER)
        missing = {i for i in ids if i not in known}
        assert not missing, missing
